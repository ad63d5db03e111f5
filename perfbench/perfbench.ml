(* perfbench: the layer-ledger benchmark.

   perfbench --workload W --seed N --seconds S --trace 0|1 --webracer EXE

   Every workload runs the same legs over its own inputs: the parallel
   batch path first, then blocks until the measured seconds are used,
   each a pass of page verdicts on one worker or of the static
   predictor, followed by a slice of open-loop load on a serve daemon at
   a fixed nominal rate. Every answer is checked. Times are reported at
   the reference speed of the host (see [Calib]). The last line of
   standard output is one JSON object: the end-to-end metrics with
   --trace 0, the per-layer metrics of a traced run with --trace 1. See
   README.md. *)

module Json = Wr_support.Json
module T = Wr_telemetry.Telemetry

let now = Wr_support.Clock.now

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let exe = ref "" and out = ref ".bench_build/perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "corpus|large-pages");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "1 = traced run (per-layer metrics)");
      ("--webracer", Arg.Set_string exe, "webracer executable (the daemon)");
      ("--out", Arg.Set_string out, "directory for the socket, logs and traces");
    ]
    (fun a -> die "unexpected argument %s" a)
    "perfbench --workload W --seed N --seconds S --trace 0|1 --webracer EXE";
  if not (List.mem !workload [ "corpus"; "large-pages" ]) then
    die "unknown workload %S" !workload;
  if not (Sys.file_exists !exe) then die "no webracer executable at %S" !exe;
  (!workload, !seed, !seconds, !trace = 1, !exe, !out)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let pct = Wr_support.Stats.fpercentile
let median xs = pct xs 50.
let ms x = x *. 1e3

(* Untimed passes of the batch path at the end of the warm-up, and the
   share of the measured seconds its timed passes get, right after.
   They run apart from the blocks, with their domains pinned one per
   CPU (see [Affinity]). *)
let batch_warm = 1.5
let share_batch = 0.2

(* Untimed verdicts of each hot page that size the latency limit. *)
let calib_passes = 3

(* About how long each serve slice lasts. The serve figures move from
   one slice to the next by a fifth or so on the baseline box, with the
   host more than with the program, so a run takes many slices spread
   over its whole length rather than one long step. *)
let slice_s = 4.0

(* Kernel samples after each timed batch pass, for its speed factor. *)
let batch_calib = 3

(* The tail percentile reported and held to the serve latency limit:
   every percentile rests on at least 100 samples, so ten lie beyond
   it. p99 is printed beside it where a leg has 1000. *)
let tail = 90.

let metric name unit v = (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ])

(* The traced run's per-layer figures, per page (or per pass, for the
   pool; per request stage, for the daemon) so they compare across runs
   of different lengths. Also checks that the layers add up: the page
   span's children (analyze, report document, serialisation) must come
   within [page_tolerance] of the page time the untraced passes measured
   independently, and the layers re-run from outside must not exceed
   the step that contains them by more than [attribution_tolerance]. *)
let page_tolerance = 0.15
let attribution_tolerance = 0.10

let layer_metrics ~counts ~out ~workload ~seed ~max_rps sp (ip : Legs.inproc) (b : Legs.batch)
    (nominal : Serve_leg.step) =
  let l = Option.get ip.traced in
  let totals = T.phase_totals sp in
  let self layer = match List.find_opt (fun (c, _, _) -> c = layer) totals with Some (_, w, _) -> w | None -> 0. in
  let n = float_of_int (max 1 l.traced_n) in
  let per_page_ms layer = ms (self layer) /. n in
  let analyze = per_page_ms "webracer.analyze" and report = per_page_ms "webracer.report_json" in
  let to_string = per_page_ms "json.to_string" in
  let children = analyze +. report +. to_string in
  let page = per_page_ms "page" +. children in
  let html = per_page_ms "html.parse" and js = per_page_ms "js.parse" in
  let hb = per_page_ms "hb.rebuild" and detect = per_page_ms "detect.replay" in
  let witness = per_page_ms "explain.witness" in
  let analyze_rest = analyze -. html -. js -. hb -. detect in
  let report_rest = report -. witness in
  let untraced = ms l.untraced_s /. float_of_int (max 1 l.untraced_n) in
  let page_gap = (children -. untraced) /. untraced in
  let adds_up =
    Float.abs page_gap <= page_tolerance
    && analyze_rest >= -.attribution_tolerance *. analyze
    && report_rest >= -.attribution_tolerance *. report
  in
  Legs.tally counts adds_up;
  let npred = float_of_int (max 1 ip.npredict) in
  let passes = float_of_int (max 1 b.stat_passes) in
  let nuntraced = float_of_int (max 1 l.untraced_n) in
  let num path =
    match nominal.metrics with
    | Some m -> (
        match List.fold_left (fun j k -> Json.member k j) m path with
        | Json.Float f -> f
        | Json.Int i -> float_of_int i
        | _ -> nan
        | exception _ -> nan)
    | None -> nan
  in
  let stage name field = ms (num [ "latency"; name; field ]) in
  let c x = float_of_int x /. n in
  let rows =
    [
      ("serve_p50_ms", "ms", ms (median nominal.latencies));
      ("serve_p90_ms", "ms", ms (pct nominal.latencies tail));
      ("serve_max_rps", "1/s", max_rps);
      ("html.parse_ms", "ms", html);
      ("js.parse_ms", "ms", js);
      ("webracer.analyze_ms", "ms", analyze);
      ("webracer.analyze_rest_ms", "ms", analyze_rest);
      ("webracer.report_json_ms", "ms", report);
      ("report.bytes", "bytes", c l.bytes);
      ("explain.witness_ms", "ms", witness);
      ("json.to_string_ms", "ms", to_string);
      ("hb.rebuild_ms", "ms", hb);
      ("hb.ops", "count", c l.ops);
      ("hb.edges", "count", c l.edges);
      ("detect.replay_ms", "ms", detect);
      ("detect.accesses", "count", c l.accesses);
      ("detect.records", "count", c l.records);
      ("detect.dedup_ratio", "ratio", float_of_int l.records /. float_of_int (max 1 l.accesses));
      ("detect.races", "count", c l.races);
      ("static.predict_ms", "ms", ms (self "static.predict") /. npred);
      ("static.mhp_pairs", "count", float_of_int ip.mhp_pairs /. npred);
      ("static.predictions", "count", float_of_int ip.predictions /. npred);
      ("pool.queue_wait_s", "s", b.queue_wait_s /. passes);
      ("pool.idle_s", "s", b.idle_s /. passes);
      ("pool.steals", "count", float_of_int b.steals /. passes);
      ("serve.decode_p99_ms", "ms", stage "decode" "p99");
      ("serve.queue_p99_ms", "ms", stage "queue" "p99");
      ("serve.run_p50_ms", "ms", stage "run" "p50");
      ("serve.encode_p50_ms", "ms", stage "encode" "p50");
      ("serve.encode_p99_ms", "ms", stage "encode" "p99");
      ("serve.cache_hit_ratio", "ratio", num [ "cache"; "hit_ratio" ]);
      ("serve.shed", "count", num [ "shed" ]);
      ("serve.timeouts", "count", num [ "timeouts" ]);
      ("loadgen.late_p99_ms", "ms", ms (pct nominal.late 99.));
      ("gc.minor_mwords", "Mwords", l.minor_words /. 1e6 /. nuntraced);
      ("gc.major_collections", "count", float_of_int l.major /. nuntraced);
      ("trace.overhead_ms", "ms", page -. untraced);
      ("trace.overhead_share", "ratio", (page -. untraced) /. untraced);
    ]
  in
  Printf.printf "  per-layer, traced run (%d traced pages; page %.3f ms, untraced %.3f ms)\n" l.traced_n page untraced;
  List.iter (fun (name, unit, v) -> Printf.printf "    %-26s %14.4f %s\n" name v unit) rows;
  Printf.printf
    "  layers add up: children %.3f ms vs untraced %.3f ms (%+.1f%%, within %.0f%%), analyze rest %.3f ms, report \
     rest %.3f ms: %s\n"
    children untraced (100. *. page_gap) (100. *. page_tolerance) analyze_rest report_rest
    (if adds_up then "ok" else "FAILED");
  let trace_file = Filename.concat out (Printf.sprintf "trace-%s-%d.json" workload seed) in
  let oc = open_out trace_file in
  output_string oc (Json.to_string (T.to_chrome_trace sp));
  close_out oc;
  Printf.printf "  spans written to %s\n" trace_file;
  List.map (fun (name, unit, v) -> metric name unit v) rows

(* Times and rates at the reference speed, block by block: each block's
   new samples are scaled by the factor of the kernel samples taken in
   that block. *)
type scaled = {
  mutable v : float list;  (** verdict seconds *)
  mutable p : float list;  (** predict seconds *)
  mutable r : float list;  (** pages per second *)
  mutable o : float list;  (** HB operations per second *)
}

(* The first [List.length xs - n] elements of [xs]: what was prepended
   since it held [n]. *)
let since n xs = List.filteri (fun i _ -> i < List.length xs - n) xs

let () =
  let workload, seed, seconds, traced, exe, out = args () in
  mkdir_p out;
  let socket = Filename.concat out (Printf.sprintf "d%d.sock" (Unix.getpid ())) in
  let log = Filename.concat out (Printf.sprintf "serve-%s-%d.log" workload seed) in
  let jobs = Domain.recommended_domain_count () in
  let counts = { Legs.attempted = 0; failed = 0 } in
  let daemon = ref None in
  let stop_daemon () = Option.iter Serve_leg.stop !daemon; daemon := None in
  at_exit stop_daemon;
  (* A run stopped from outside, or whose reader went away, still stops
     its daemon. *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup; Sys.sigpipe ];
  (* --- set-up, three times: inputs from the seed, daemon start to its
     first answered ping; then the warm-up: one verdict and one predict
     pass, the hot set, and untimed batch passes. *)
  let pop = ref None in
  let setups =
    List.init 3 (fun _ ->
        stop_daemon ();
        let t0 = now () in
        pop := Some (Population.build ~workload ~seed);
        daemon := Some (Serve_leg.start ~exe ~socket ~log);
        now () -. t0)
  in
  let pop = Option.get !pop and d = Option.get !daemon in
  let pages = pop.pages in
  let npages = List.length pages in
  let corpus_seed = if workload = "corpus" then Some (Population.corpus_seed_base seed) else None in
  let t_warm = now () in
  (* The warm-up verdicts are the oracle of the static check and of
     the serve requests at page seeds. *)
  let reports = Array.make npages None in
  let warm = Legs.inproc ~traced:false in
  Legs.verdict_pass counts warm T.disabled pages ~keep:(fun i r ~verdict_s:_ ~encode_s:_ -> reports.(i) <- Some r);
  let reports = Array.map Option.get reports in
  Legs.predict_pass ~against:reports counts warm T.disabled pages;
  let oracle = Hashtbl.create 64 in
  List.iteri (fun i (p : Population.page) -> Hashtbl.replace oracle (p.name, p.seed) (Legs.digest reports.(i))) pages;
  (* Prime the daemon's cache with the hot set, and time each hot page
     in process: the median of [calib_passes] verdicts, and of their
     [Json.to_string] part, at the reference speed, give the capacity
     estimate and the latency limit (see [Serve_leg.plan]). The first
     pass gives each hot page's oracle. *)
  let nh = Array.length pop.hot in
  let hot_pages = Array.to_list (Array.map (fun ((p : Population.page), s) -> { p with seed = s }) pop.hot) in
  List.iter (fun (p : Population.page) -> ignore (Serve_leg.call d.socket (Serve_leg.analyze_verb p ~seed:p.seed))) hot_pages;
  let verdict_s = Array.make nh [] and encode_s = Array.make nh [] in
  for pass = 1 to calib_passes do
    Legs.verdict_pass counts warm T.disabled hot_pages ~keep:(fun j r ~verdict_s:v ~encode_s:e ->
        let p = List.nth hot_pages j in
        if pass = 1 then Hashtbl.replace oracle (p.name, p.seed) (Legs.digest r);
        verdict_s.(j) <- v :: verdict_s.(j);
        encode_s.(j) <- e :: encode_s.(j))
  done;
  let f_warm = Calib.factor warm.calib in
  let verdict_s = Array.map (fun xs -> f_warm *. median xs) verdict_s in
  let encode_s = Array.map (fun xs -> f_warm *. median xs) encode_s in
  (* The batch path, its domains one per CPU (see [Affinity]). *)
  Affinity.spread_pools ();
  let b = Legs.batch ~jobs ~corpus_seed in
  Fun.protect ~finally:(fun () -> Legs.batch_close b; Affinity.gather ()) @@ fun () ->
  let t_batch = now () in
  while now () -. t_batch < batch_warm do
    Legs.batch_pass ~record:false ~jobs ~corpus_seed counts b pages
  done;
  let setup_raw = median setups +. (now () -. t_warm) in
  let setup_s = f_warm *. setup_raw in
  (* --- the serve load. The [k]-th request asks for hot page [k mod n];
     every [miss_every]-th one under a fresh seed. Each request's oracle
     is the in-process verdict for its page and seed, computed before
     the slice that sends it. *)
  let fresh k = k mod pop.miss_every = pop.miss_every - 1 in
  let req k =
    let page, s = pop.hot.(k mod nh) in
    if fresh k then (page, Population.miss_seed ~seed k) else (page, s)
  in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let cycle = nh * pop.miss_every / gcd nh pop.miss_every in
  let cost k = if fresh k then verdict_s.(k mod nh) else encode_s.(k mod nh) in
  let plan = Serve_leg.plan ~nominal:pop.serve_rate (List.init cycle cost) in
  let reqs k =
    let (p : Population.page), s = req k in
    let o =
      match Hashtbl.find_opt oracle (p.name, s) with
      | Some o -> o
      | None ->
          let o =
            Legs.digest
              (Webracer.analyze (Webracer.config ~page:p.html ~resources:p.resources ~seed:s ~explore:true ()))
          in
          Hashtbl.replace oracle (p.name, s) o;
          o
    in
    { Serve_leg.page = p; seed = s; oracle = o }
  in
  let nominal_rate = pop.serve_rate in
  (* --- the batch path: timed passes right after its untimed ones, each
     followed by a few kernel samples for its speed factor *)
  let bcal = Calib.create () in
  let t0 = now () in
  while now () -. t0 < seconds *. share_batch || List.length b.pages_per_s < 3 do
    Legs.batch_pass ~record:true ~jobs ~corpus_seed counts b pages;
    for _ = 1 to batch_calib do Calib.sample bcal done
  done;
  Legs.batch_close b;
  Affinity.gather ();
  Gc.compact ();
  (* --- the blocks, alternating verdict and predict passes, each
     followed by a serve slice *)
  let line fmt = Printf.printf (fmt ^^ "\n%!") in
  let sp = if traced then T.create ~clock:now () else T.disabled in
  let ip = Legs.inproc ~traced in
  let sc = { v = []; p = []; r = []; o = [] } in
  (* The daemon's shard loop on CPU 0 and its worker on CPU 1; this
     process beside the shard loop, which it feeds and drains (see
     [Affinity]). *)
  Affinity.split_process d.pid;
  Affinity.pin_self 0;
  let cl = Serve_leg.client ~socket ~nconns:(min 2 jobs) in
  let slices = ref [] and nserved = ref 0 and blocks = ref 0 and f_last = ref 1. in
  (* The five large pages get several passes a block, so that a few
     blocks give every percentile its samples. *)
  let reps = (Legs.min_samples / 4 + npages - 1) / npages in
  (* One block: [reps] in-process passes, then a serve slice. Their
     samples are scaled by the factor of the kernel samples the passes
     took. The slice lasts about [slice_s] at the nominal rate at the
     host's current speed; once the measured time is used, slices stop
     at the end of a cycle of the request sequence, so that every run
     sends whole cycles. Its oracles come first, untimed. *)
  let block name pass =
    incr blocks;
    let nk = Calib.count ip.calib in
    let nv = List.length ip.times and np = List.length ip.ptimes and nr = List.length ip.rates in
    let t_block = now () in
    for _ = 1 to reps do pass () done;
    let inproc_s = now () -. t_block in
    let f = Calib.factor ~since:nk ip.calib in
    f_last := f;
    sc.v <- List.map (fun x -> f *. x) (since nv ip.times) @ sc.v;
    sc.p <- List.map (fun x -> f *. x) (since np ip.ptimes) @ sc.p;
    sc.r <- List.map (fun x -> x /. f) (since nr ip.rates) @ sc.r;
    sc.o <- List.map (fun x -> x /. f) (since nr ip.op_rates) @ sc.o;
    let rate = nominal_rate *. f in
    let n = max 1 (int_of_float (Float.round (slice_s *. rate))) in
    let n = if now () -. t0 >= seconds then min n (cycle - (cl.k mod cycle)) else n in
    for k = cl.k to cl.k + n - 1 do ignore (reqs k) done;
    let st = Serve_leg.step cl ~rate ~scale:f ~n ~tail ~limit_ms:plan.limit_ms ~counts reqs in
    slices := st :: !slices;
    nserved := !nserved + n;
    line "  block %d: %s %.2f s, factor %.4f; serve %d at %.1f req/s: p50 %.3f ms, p90 %.3f ms" !blocks name
      inproc_s f n rate (ms (median st.latencies)) (ms (pct st.latencies tail))
  in
  let finished () =
    now () -. t0 >= seconds
    && List.length ip.times >= Legs.min_samples
    && List.length ip.ptimes >= Legs.min_samples
    && !nserved >= Legs.min_samples
    && cl.k mod cycle = 0
  in
  while not (finished ()) do
    block "verdict" (fun () -> Legs.verdict_pass counts ip sp pages);
    if not (finished ()) then block "predict" (fun () -> Legs.predict_pass counts ip sp pages)
  done;
  let measured_s = now () -. t0 in
  let nominal = Serve_leg.merge ~tail ~limit_ms:plan.limit_ms !slices in
  (* The ladder above the nominal rate gives [serve_max_rps], a
     per-layer metric: only the traced run climbs it. *)
  let steps =
    nominal
    ::
    (if traced then
       Serve_leg.ladder cl
         ~rates:(List.map (fun r -> r *. !f_last) (List.tl plan.rates))
         ~scale:!f_last ~tail ~limit_ms:plan.limit_ms ~counts reqs
     else [])
  in
  Serve_leg.close_client cl;
  stop_daemon ();
  Affinity.unpin_self ();
  (* At the reference speed, like the latency limit. *)
  let max_rps = Serve_leg.max_rps ~tail ~limit_ms:plan.limit_ms steps /. !f_last in
  (* --- the human-readable table: figures at the reference speed, raw
     ones in brackets *)
  let f_run = Calib.factor ip.calib and f_batch = Calib.factor bcal in
  line "workload %s  seed %d  seconds %g  trace %b  pages %d" workload seed seconds traced npages;
  line "  host speed factor: warm-up %.4f, batch %.4f, blocks %.4f (kernel median %.3f ms, reference %.3f ms)"
    f_warm f_batch f_run (ms (Calib.median ip.calib)) (ms Calib.reference_s);
  line "  setup_s                %10.3f s    [%.3f] (median of %d set-ups + warm-up)" setup_s setup_raw
    (List.length setups);
  line "  %d blocks in %.1f s" !blocks measured_s;
  let report_times name xs raw =
    let n = List.length xs in
    line "  %-22s %10.3f ms [%.3f]  p90 %.3f ms [%.3f]%s  (n=%d)" (name ^ "_p50") (ms (median xs)) (ms (median raw))
      (ms (pct xs tail)) (ms (pct raw tail))
      (if n >= 1000 then Printf.sprintf "  p99 %.3f ms" (ms (pct xs 99.)) else "")
      n
  in
  let pages_per_s = median sc.r and ops_per_s = median sc.o in
  let batch = median b.pages_per_s /. f_batch in
  report_times "verdict" sc.v ip.times;
  line "  pages_per_s            %10.2f 1/s [%.2f]  (median of %d passes)" pages_per_s (median ip.rates)
    (List.length sc.r);
  line "  ops_per_s              %10.0f 1/s [%.0f]" ops_per_s (median ip.op_rates);
  report_times "predict" sc.p ip.ptimes;
  line "  batch_pages_per_s      %10.2f 1/s [%.2f]  (median of %d passes, raw %.2f to %.2f, jobs %d)" batch
    (median b.pages_per_s) (List.length b.pages_per_s) (pct b.pages_per_s 0.) (pct b.pages_per_s 100.) jobs;
  line
    "  serve plan: nominal %.1f req/s at the reference speed (estimated capacity %.0f req/s), %d hot pages, 1 in %d \
     a miss, cycle %d, limit p90 <= %.1f ms"
    nominal_rate plan.capacity nh pop.miss_every cycle plan.limit_ms;
  List.iter
    (fun (s : Serve_leg.step) ->
      line "  serve @ %6.1f req/s    p50 %.3f ms  p90 %.3f ms  late p99 %.3f ms  n=%d  %s" s.rate
        (ms (median s.latencies)) (ms (pct s.latencies tail)) (ms (pct s.late 99.))
        (List.length s.latencies)
        (if s.passed then "meets" else "misses"))
    steps;
  if traced then line "  serve_max_rps          %10.2f 1/s" max_rps;
  let metrics =
    if not traced then
      [
        metric "setup_s" "s" setup_s;
        metric "verdict_p50_ms" "ms" (ms (median sc.v));
        metric "verdict_p90_ms" "ms" (ms (pct sc.v tail));
        metric "pages_per_s" "1/s" pages_per_s;
        metric "ops_per_s" "1/s" ops_per_s;
        metric "predict_p50_ms" "ms" (ms (median sc.p));
        metric "predict_p90_ms" "ms" (ms (pct sc.p tail));
        metric "batch_pages_per_s" "1/s" batch;
      ]
    else layer_metrics ~counts ~out ~workload ~seed ~max_rps sp ip b nominal
  in
  line "  attempted %d  failed %d" counts.attempted counts.failed;
  let correct = counts.failed = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int counts.attempted);
            ("failed", Json.Int counts.failed);
            ("metrics", Json.Obj metrics);
          ]))
