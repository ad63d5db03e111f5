(* Where the benchmark's parallel work runs.

   On the 2-vCPU baseline box the scheduler often kept two busy domains
   on one vCPU while the other sat idle: they wake each other at every
   stop-the-world minor collection, and the kernel prefers to wake a
   thread on the CPU that woke it. A run that fell into that state took
   twice as long throughout, and its figures flipped between two levels
   from run to run. So the parallel legs spread their threads over the
   CPUs by hand, the way a benchmark run under [taskset] would: the
   batch path's domains one per CPU, and the daemon's shard loop and
   worker on CPUs of their own. Where pinning is not available the
   calls do nothing. *)

external pin : int -> int -> bool = "perfbench_pin"

let ncpus = Domain.recommended_domain_count ()

(* Pin the calling thread to [cpu] (modulo the CPU count). *)
let pin_self cpu = ignore (pin 0 (cpu mod ncpus))

(* Let the calling thread run anywhere again. *)
let unpin_self () = ignore (pin 0 (-1))

(* From [spread_pools ()] until [gather ()], the calling domain sits
   on CPU 0 and the worker domains of every pool created meanwhile on
   CPUs 1, 2, ..., round-robin; afterwards the calling thread runs
   anywhere again. *)
let spread_pools () =
  let next = Atomic.make 0 in
  let main = Domain.self () in
  Wr_support.Pool.set_worker_hook (fun () ->
      if Domain.self () = main || ncpus = 1 then pin_self 0
      else pin_self (1 + (Atomic.fetch_and_add next 1 mod (ncpus - 1))));
  pin_self 0

let gather () =
  Wr_support.Pool.set_worker_hook ignore;
  unpin_self ()

(* The thread ids of process [pid]. *)
let threads pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | ids -> List.filter_map int_of_string_opt (Array.to_list ids) |> List.sort compare
  | exception Sys_error _ -> []

(* Pin process [pid]'s main thread to CPU 0 and every other thread to
   CPU 1 (for the daemon: its first shard loop runs on the main thread,
   the worker domain and the runtime's helper threads are the rest). *)
let split_process pid =
  List.iter (fun tid -> ignore (pin tid (if tid = pid then 0 else 1 mod ncpus))) (threads pid)
