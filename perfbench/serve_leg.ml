(* The serve leg: a [webracer serve] daemon in its own process (1 shard,
   1 worker, defaults otherwise) driven by an open-loop client.

   Requests go out on a fixed schedule, round-robin over at most
   [nproc] connections, whatever the daemon's state. Each one is timed
   from when it was due, so a stall also charges the requests queued
   behind it; how late the client itself sent is recorded apart. On the
   timed path the client only splits response lines and reads the id at
   their head; bodies are decoded and checked after each rate step. *)

module Json = Wr_support.Json
module Request = Wr_serve.Request

let now = Wr_support.Clock.now

type daemon = { pid : int; socket : string }

let ping_ok socket =
  let c = Wr_serve.Client.connect ~retry_for:20. (Wr_serve.Daemon.Unix_socket socket) in
  Fun.protect
    ~finally:(fun () -> Wr_serve.Client.close c)
    (fun () ->
      match Wr_serve.Client.request c (Request.make ~id:(Json.Int 0) Request.Ping) with
      | Ok r -> Wr_serve.Response.is_ok r
      | Error _ -> false)

(* Start the daemon and wait for its first answered ping. *)
let start ~exe ~socket ~log =
  (try Sys.remove socket with Sys_error _ -> ());
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket; "-j"; "1"; "--shards"; "1" |]
      null fd fd
  in
  Unix.close fd;
  Unix.close null;
  let d = { pid; socket } in
  match ping_ok socket with
  | true -> d
  | false | (exception _) ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      failwith ("the daemon did not answer ping; see " ^ log)

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid)

(* One synchronous call on a fresh connection (priming and metrics
   reads, never on the timed path). *)
let call socket verb =
  let c = Wr_serve.Client.connect (Wr_serve.Daemon.Unix_socket socket) in
  Fun.protect
    ~finally:(fun () -> Wr_serve.Client.close c)
    (fun () -> Wr_serve.Client.request c (Request.make ~id:(Json.Int 0) verb))

let analyze_verb (p : Population.page) ~seed =
  Request.analyze
    (Request.analyze_params ~page:p.html ~resources:p.resources ~seed ~explore:true ())

(* --- the open-loop client ------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  mutable out : string list;  (** lines queued behind [cur] *)
  mutable cur : string;
  mutable off : int;
  mutable inb : Bytes.t;
  mutable inlen : int;
  mutable scanned : int;
}

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.set_nonblock fd;
  { fd; out = []; cur = ""; off = 0; inb = Bytes.create 65536; inlen = 0; scanned = 0 }

let rec flush c =
  if c.off < String.length c.cur then begin
    match Unix.write_substring c.fd c.cur c.off (String.length c.cur - c.off) with
    | n ->
        c.off <- c.off + n;
        flush c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  end
  else
    match c.out with
    | l :: rest ->
        c.cur <- l;
        c.off <- 0;
        c.out <- rest;
        flush c
    | [] -> ()

let pending c = c.off < String.length c.cur || c.out <> []

(* The id at the head of a response line ({"schema_version":1,"id":N,...})
   and where the rest of the line starts. *)
let head line =
  let key = "\"id\":" in
  let n = min (String.length line) 96 in
  let rec find i =
    if i + String.length key > n then None
    else if String.sub line i (String.length key) = key then Some (i + String.length key)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some j ->
      let k = ref j in
      while !k < n && line.[!k] >= '0' && line.[!k] <= '9' do
        incr k
      done;
      Option.map (fun id -> (id, !k)) (int_of_string_opt (String.sub line j (!k - j)))

let head_id line = Option.map fst (head line)

(* Read what is there; hand every complete line to [on_line]. *)
let drain c on_line =
  let rec loop () =
    if c.inlen = Bytes.length c.inb then begin
      let bigger = Bytes.create (2 * Bytes.length c.inb) in
      Bytes.blit c.inb 0 bigger 0 c.inlen;
      c.inb <- bigger
    end;
    match Unix.read c.fd c.inb c.inlen (Bytes.length c.inb - c.inlen) with
    | 0 -> failwith "the daemon closed the connection"
    | n ->
        c.inlen <- c.inlen + n;
        let start = ref 0 in
        for i = c.scanned to c.inlen - 1 do
          if Bytes.get c.inb i = '\n' then begin
            on_line (Bytes.sub_string c.inb !start (i - !start));
            start := i + 1
          end
        done;
        if !start > 0 then begin
          Bytes.blit c.inb !start c.inb 0 (c.inlen - !start);
          c.inlen <- c.inlen - !start
        end;
        c.scanned <- c.inlen;
        loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  loop ()

type sample = {
  due : float;
  mutable sent : float;
  mutable arrived : float;  (** nan until answered *)
  mutable line : string;
}

(* Send [lines.(k)] at [t0 + k / rate] over [conns]; wait for every
   answer until [drain_s] after the last was due. Ids run from
   [id_base]. *)
let run_step conns ~rate ~id_base (lines : string array) ~drain_s =
  let n = Array.length lines in
  let t0 = now () +. 0.005 in
  let samples =
    Array.init n (fun k ->
        { due = t0 +. (float_of_int k /. rate); sent = nan; arrived = nan; line = "" })
  in
  let conns = Array.of_list conns in
  let nc = Array.length conns in
  let next = ref 0 and received = ref 0 in
  let deadline = t0 +. (float_of_int n /. rate) +. drain_s in
  let on_line line =
    match head_id line with
    | Some id when id >= id_base && id < id_base + n ->
        let s = samples.(id - id_base) in
        if Float.is_nan s.arrived then begin
          s.arrived <- now ();
          s.line <- line;
          incr received
        end
    | _ -> ()
  in
  while !received < n && now () < deadline do
    let t = now () in
    while !next < n && samples.(!next).due <= t do
      let c = conns.(!next mod nc) in
      c.out <- c.out @ [ lines.(!next) ];
      samples.(!next).sent <- t;
      incr next;
      flush c
    done;
    let wait =
      if !next < n then Float.max 0. (samples.(!next).due -. now ()) else 0.05
    in
    let writers = Array.to_list conns |> List.filter pending |> List.map (fun c -> c.fd) in
    let readers = Array.to_list (Array.map (fun c -> c.fd) conns) in
    match Unix.select readers writers [] (Float.min wait 0.05) with
    | r, w, _ ->
        Array.iter
          (fun c ->
            if List.mem c.fd w then flush c;
            if List.mem c.fd r then drain c on_line)
          conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  samples

(* --- the leg ------------------------------------------------------------ *)

type step = {
  rate : float;  (** requests per second sent *)
  latencies : float list;
      (** seconds from due to answer at the reference speed (see [Calib]),
          in the order due; unanswered = 1000 *)
  late : float list;  (** seconds the client sent after the due time *)
  ok : bool;  (** every request answered ok with the right verdict *)
  passed : bool;  (** [ok], and the latency limit met *)
  metrics : Json.t option;  (** the daemon's [metrics] document after the step *)
}

let percentile xs p = Wr_support.Stats.fpercentile xs p

(* A request: its page, its seed and the digest of the in-process
   verdict it must match. *)
type req = { page : Population.page; seed : int; oracle : string }

(* The load the leg offers. A request's estimated cost is the
   in-process time of what the daemon runs for it: a full report for a
   miss, [Json.to_string] of the cached report for a hit (the cache
   keeps the report document and serialises it on every hit). The
   capacity estimate is one over the mean cost; it leaves out request
   decoding and socket transfer, so the daemon's real capacity is lower.
   The nominal rate is given (see [Population]); the ladder climbs from
   it by [ladder]. A step meets the latency limit when its tail stays
   under [limit_factor] mean requests of work. These two constants are
   choices, not measurements. Costs, rates and the limit are all at the
   reference speed (see [Calib]): a step sends at its rate times the
   host's current speed factor, so the load keeps its share of the
   daemon's capacity when the host slows down or speeds up during a
   run. *)
type plan = { rates : float list; limit_ms : float; capacity : float }

let ladder = [ 1.; 2.; 3.; 4.5; 6.75; 10.; 15.; 22.; 33.; 50. ]
let limit_factor = 20.

let plan ~nominal costs =
  let mean = Wr_support.Stats.fsum costs /. float_of_int (List.length costs) in
  {
    rates = List.map (fun m -> m *. nominal) ladder;
    limit_ms = limit_factor *. mean *. 1e3;
    capacity = 1. /. mean;
  }

(* The open-loop client: its connections, and the next request id and
   sequence number, which run on across steps. *)
type client = {
  socket : string;
  conns : conn list;
  mutable id_base : int;
  mutable k : int;
  verified : (string * int, Digest.t) Hashtbl.t;
      (** per page and seed: the digest of a response body already
          decoded and found right *)
}

let client ~socket ~nconns =
  {
    socket;
    conns = List.init nconns (fun _ -> connect socket);
    id_base = 1_000;
    k = 0;
    verified = Hashtbl.create 64;
  }

let close_client cl = List.iter (fun c -> Unix.close c.fd) cl.conns

(* Whether a step meets the limit: every request was answered ok with
   the right verdict, the tail percentile is under the limit, and the
   last quarter of the step is not slower than the limit (no growing
   backlog). [latencies] are in the order the requests were due. *)
let meets ~ok ~tail ~limit_ms latencies =
  let n = List.length latencies in
  let quarter = List.filteri (fun i _ -> i >= n - max 1 (n / 4)) latencies in
  ok
  && percentile latencies tail *. 1e3 <= limit_ms
  && percentile quarter 50. *. 1e3 <= limit_ms

(* Send the next [n] requests of the sequence at [rate], then check
   every answer and read the daemon's metrics. [scale] takes the
   latencies to the reference speed. *)
let step cl ~rate ~scale ~n ~tail ~limit_ms ~counts (reqs : int -> req) =
  let batch = Array.init n (fun i -> reqs (cl.k + i)) in
  let lines =
    Array.mapi
      (fun i r ->
        Json.to_string
          (Request.to_json
             (Request.make ~id:(Json.Int (cl.id_base + i)) (analyze_verb r.page ~seed:r.seed)))
        ^ "\n")
      batch
  in
  Gc.full_major ();
  let samples = run_step cl.conns ~rate ~id_base:cl.id_base lines ~drain_s:20. in
  cl.id_base <- cl.id_base + n;
  cl.k <- cl.k + n;
  (* Check every answer now that the step is over. A hit returns the
     same bytes after the id every time, so a body already decoded and
     found right for its page and seed is recognised by its digest;
     any other body is decoded and checked. *)
  let ok = ref true in
  Array.iteri
    (fun i s ->
      let r = batch.(i) in
      let key = (r.page.name, r.seed) in
      let body =
        match head s.line with
        | Some (_, j) -> Some (Digest.substring s.line j (String.length s.line - j))
        | None -> None
      in
      let good =
        (not (Float.is_nan s.arrived))
        && (body <> None && Hashtbl.find_opt cl.verified key = body
           ||
           match Wr_serve.Response.of_line s.line with
           | Ok (Wr_serve.Response.Ok { result; _ }) ->
               let right = Legs.digest_json result = r.oracle in
               if right then Option.iter (Hashtbl.replace cl.verified key) body;
               right
           | Ok (Wr_serve.Response.Error { message; _ }) ->
               Printf.eprintf "perfbench: request %d at %g req/s: %s\n%!" i rate message;
               false
           | Error e ->
               Printf.eprintf "perfbench: request %d at %g req/s: %s\n%!" i rate e;
               false)
      in
      if Float.is_nan s.arrived then
        Printf.eprintf "perfbench: request %d at %g req/s: no answer\n%!" i rate;
      Legs.tally counts good;
      if not good then ok := false)
    samples;
  let lat s = if Float.is_nan s.arrived then 1e3 else scale *. (s.arrived -. s.due) in
  let latencies = Array.to_list (Array.map lat samples) in
  let metrics =
    match call cl.socket Request.Metrics with
    | Ok (Wr_serve.Response.Ok { result; _ }) -> Some result
    | _ -> None
  in
  {
    rate;
    latencies;
    late = Array.to_list (Array.map (fun s -> s.sent -. s.due) samples);
    ok = !ok;
    passed = meets ~ok:!ok ~tail ~limit_ms latencies;
    metrics;
  }

(* The nominal rate's slices, one per block, as one step: every
   sample pooled in the order sent, the daemon's metrics from after the
   last slice. *)
let merge ~tail ~limit_ms slices =
  let slices = List.rev slices in
  let latencies = List.concat_map (fun s -> s.latencies) slices in
  {
    rate = (List.hd slices).rate;
    latencies;
    late = List.concat_map (fun s -> s.late) slices;
    ok = List.for_all (fun s -> s.ok) slices;
    passed = meets ~ok:(List.for_all (fun s -> s.ok) slices) ~tail ~limit_ms latencies;
    metrics = (List.nth slices (List.length slices - 1)).metrics;
  }

(* The ladder above the nominal rate, each step at least one second and
   60 requests, up to the first step that misses the limit: past it the
   daemon is saturated, and a higher rate would only lengthen its
   backlog. *)
let ladder cl ~rates ~scale ~tail ~limit_ms ~counts reqs =
  let rec go acc = function
    | [] -> List.rev acc
    | rate :: rest ->
        let n = max 60 (int_of_float (Float.ceil rate)) in
        let st = step cl ~rate ~scale ~n ~tail ~limit_ms ~counts reqs in
        if st.passed then go (st :: acc) rest else List.rev (st :: acc)
  in
  go [] rates

(* The highest rate meeting the limit: where the tail percentile
   crosses it, interpolated linearly between the last step that met the
   limit and the first that did not. A step far past capacity has a
   tail far above the limit, so the crossing then sits near the last
   step that passed. *)
let max_rps ~tail ~limit_ms steps =
  let p s = percentile s.latencies tail *. 1e3 in
  let rec go prev = function
    | [] -> ( match prev with Some s -> s.rate | None -> 0.)
    | s :: rest when s.passed -> go (Some s) rest
    | s :: _ -> (
        match prev with
        | None -> s.rate *. Float.min 1. (limit_ms /. p s)
        | Some a ->
            let pa = p a and pb = p s in
            if pb <= pa then a.rate
            else
              let x = Float.min 1. (Float.max 0. ((limit_ms -. pa) /. (pb -. pa))) in
              a.rate +. (x *. (s.rate -. a.rate)))
  in
  go None steps
