(* The host's speed, measured beside the program.

   The baseline box is a VM on a shared host, whose speed moves with the
   other tenants' load by a third or more, in spells from seconds to
   over an hour. Every run therefore also times a fixed reference
   kernel, written against the OCaml standard library only, so no change
   to the program can move it: string-keyed hash-table inserts and
   lookups, a list sort and a buffer fill, which allocate and chase
   pointers as the analysis does. The kernel runs between pages, never
   inside a timed call.

   The end-to-end times are reported at the reference speed: each is
   multiplied by [reference_s] over the median kernel time of the same
   stretch of the run (a rate is divided by it). A run on a slow spell
   of the host then reads about the same as one on a quiet spell, while
   a change to the program still moves its figures by its full effect.
   The correction is not exact: in quiet spells of the baseline box the
   kernel sped up by more than the analysis did. The raw figures and the
   factors are printed in the run's table. *)

let now = Wr_support.Clock.now

(* About the kernel's median time on the baseline box (2 vCPUs,
   OCaml 5) over the runs behind the baseline table in README.md,
   rounded. Only the scale of the reported figures depends on it, not
   their spread. *)
let reference_s = 1.05e-3

let kernel () =
  let h = Hashtbl.create 16 in
  for i = 0 to 799 do
    Hashtbl.replace h (string_of_int (i * 7_919)) i
  done;
  let hits = ref 0 in
  for i = 0 to 1_599 do
    match Hashtbl.find_opt h (string_of_int (i * 3_960)) with Some v -> hits := !hits + v | None -> ()
  done;
  let l = List.init 1_000 (fun i -> ((i * 104_729) mod 10_007, string_of_int i)) in
  let b = Buffer.create 256 in
  List.iter
    (fun (k, s) ->
      Buffer.add_string b s;
      Buffer.add_char b (Char.chr (48 + (k mod 10))))
    (List.sort compare l);
  !hits + Buffer.length b

type t = { mutable samples : float list }

let create () = { samples = [] }

(* Time the kernel once. *)
let sample c =
  let t0 = now () in
  ignore (Sys.opaque_identity (kernel ()));
  c.samples <- (now () -. t0) :: c.samples

let count c = List.length c.samples

let median_of xs = Wr_support.Stats.fpercentile xs 50.

(* What a time is multiplied by (and a rate divided by) to read it at
   the reference speed: over every sample, or over the samples taken
   since there were [since]. *)
let factor ?(since = 0) c =
  reference_s /. median_of (List.filteri (fun i _ -> i < count c - since) c.samples)

let median c = median_of c.samples
