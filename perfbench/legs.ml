(* The in-process legs: one page to a full JSON verdict, the static
   predictor, and the parallel batch path, each with its oracle. *)

open Population
module Json = Wr_support.Json
module T = Wr_telemetry.Telemetry

let now = Wr_support.Clock.now

let config ?(trace = false) p =
  Webracer.config ~page:p.html ~resources:p.resources ~seed:p.seed ~explore:true ~trace ()

(* The benchmark's spans: the layer is the category, the page or request
   id is in the name. On [Telemetry.disabled] a span is a plain call. *)
let span sp ~id layer f = T.with_span sp ~cat:layer ~name:(Printf.sprintf "%s #%d" layer id) f

(* The verdict one page gets from [run --json] or the serve [analyze]
   verb: analyze, build the report document, serialise it. *)
let verdict sp ~id p =
  span sp ~id "page" (fun () ->
      let r = span sp ~id "webracer.analyze" (fun () -> Webracer.analyze (config p)) in
      let j = span sp ~id "webracer.report_json" (fun () -> Webracer.report_to_json r) in
      let s = span sp ~id "json.to_string" (fun () -> Json.to_string j) in
      (r, String.length s))

(* The race verdict as a comparable string: every raw and filtered race
   by type and location, in report order. *)
let digest_races races =
  String.concat ";"
    (List.map
       (fun (r : Wr_detect.Race.t) ->
         Wr_detect.Race.type_name r.race_type ^ "@" ^ Wr_mem.Location.to_string r.loc)
       races)

let digest (r : Webracer.report) = digest_races r.races ^ "|" ^ digest_races r.filtered

(* The same digest read back from a report document. *)
let digest_json j =
  let side name =
    String.concat ";"
      (List.map
         (fun race -> Json.to_str (Json.member "type" race) ^ "@" ^ Json.to_str (Json.member "location" race))
         (Json.to_list (Json.member name j)))
  in
  side "races" ^ "|" ^ side "filtered"

(* The dynamic oracle: planted filtered counts for sitegen sites, the
   generator's op and race counts for large pages. *)
let verdict_ok p (r : Webracer.report) =
  match p.expect with
  | Planted prof ->
      let h, f, v, d = Webracer.count_by_type r.filtered in
      let e = Wr_sitegen.Profile.expected_filtered prof in
      h = e.html && f = e.func && v = e.var && d = e.disp
  | Standalone -> true
  | Shape { ops; races } -> r.ops = ops && List.length r.races = races

(* The static oracle: every dynamic race is predicted. *)
let predict_ok (pred : Wr_static.Predict.result) report =
  (Wr_static.Compare.against_report pred report).missed = []

let predict sp ~id p =
  span sp ~id "static.predict" (fun () ->
      Wr_static.Predict.predict ~page:p.html ~resources:p.resources ())

(* --- the attribution ledger (traced run only) -------------------------- *)

let is_html url = Filename.check_suffix url ".html" || Filename.check_suffix url ".htm"

(* Inline script bodies and the bodies of external scripts this forest
   references. *)
let rec scripts resources nodes =
  List.concat_map
    (function
      | Wr_html.Html.Text _ -> []
      | Wr_html.Html.Element { tag = "script"; attrs; children } -> (
          match List.find_opt (fun (a : Wr_html.Html.attr) -> a.name = "src") attrs with
          | Some a -> Option.to_list (List.assoc_opt a.value resources)
          | None ->
              [
                String.concat ""
                  (List.filter_map (function Wr_html.Html.Text t -> Some t | _ -> None) children);
              ])
      | Wr_html.Html.Element e -> scripts resources e.children)
    nodes

(* Re-run each layer the analysis went through on its own, from its
   public entry point: tree-build of every document, MiniJS parsing of
   every script, HB graph rebuild and detector replay of the recorded
   trace, witness construction for every reported race. The trace comes
   from a second, untimed analysis with recording on, so the page spans
   themselves time exactly what the untraced run does. *)
let ledger sp ~id p (r : Webracer.report) =
  let docs = p.html :: List.filter_map (fun (u, b) -> if is_html u then Some b else None) p.resources in
  let forests = span sp ~id "html.parse" (fun () -> List.map (fun d -> Wr_html.Html.parse d) docs) in
  let srcs = List.concat_map (scripts p.resources) forests in
  span sp ~id "js.parse" (fun () ->
      List.iter (fun s -> try ignore (Wr_js.Parser.parse s) with _ -> ()) srcs);
  let recorded = Webracer.analyze (config ~trace:true p) in
  let trace = Option.get recorded.trace in
  span sp ~id "detect.replay" (fun () ->
      ignore (span sp ~id "hb.rebuild" (fun () -> Wr_detect.Trace.rebuild_graph trace));
      ignore (Wr_detect.Trace.replay trace ~detector:Wr_detect.Last_access.create));
  ignore
    (span sp ~id "explain.witness" (fun () -> Wr_explain.of_races r.hb_graph (r.races @ r.filtered)))

(* --- legs ---------------------------------------------------------------- *)

(* Every percentile rests on at least this many samples, so ten lie
   beyond the p90. *)
let min_samples = 100

type counts = { mutable attempted : int; mutable failed : int }

let tally c ok =
  c.attempted <- c.attempted + 1;
  if not ok then c.failed <- c.failed + 1

(* What the traced run adds to each verdict pass: right after its
   untraced verdict, each page is run again with the page spans on and
   then through the ledger. The untraced verdicts give the page time
   the spans are checked against, taken side by side so that a slow
   spell of the host lands on both, and the GC figures. *)
type traced = {
  mutable untraced_s : float;  (** total untraced verdict time *)
  mutable untraced_n : int;
  mutable minor_words : float;  (** allocated by the untraced verdicts *)
  mutable major : int;
  mutable traced_n : int;
  mutable ops : int;
  mutable edges : int;
  mutable accesses : int;
  mutable records : int;
  mutable races : int;
  mutable bytes : int;
}

(* The in-process samples, grown by every timed pass. *)
type inproc = {
  mutable times : float list;  (** seconds per untraced page verdict, every sample *)
  mutable rates : float list;  (** pages per second of verdict time, one per pass *)
  mutable op_rates : float list;  (** HB operations per second of verdict time, per pass *)
  mutable ptimes : float list;  (** seconds per prediction, every sample *)
  mutable mhp_pairs : int;  (** over every prediction made *)
  mutable predictions : int;
  mutable npredict : int;
  calib : Calib.t;  (** the reference kernel, timed after every page *)
  traced : traced option;
}

let inproc ~traced =
  {
    times = [];
    rates = [];
    op_rates = [];
    ptimes = [];
    mhp_pairs = 0;
    predictions = 0;
    npredict = 0;
    calib = Calib.create ();
    traced =
      (if traced then
         Some
           {
             untraced_s = 0.;
             untraced_n = 0;
             minor_words = 0.;
             major = 0;
             traced_n = 0;
             ops = 0;
             edges = 0;
             accesses = 0;
             records = 0;
             races = 0;
             bytes = 0;
           }
       else None);
  }

(* One verdict pass: every page to a full report, one at a time on one
   domain, each checked against its oracle. [keep i report ~verdict_s
   ~encode_s] sees each page's report and its time, the [Json.to_string]
   part apart; the warm-up pass keeps them, timed passes drop them. *)
let verdict_pass ?(keep = fun _ _ ~verdict_s:_ ~encode_s:_ -> ()) c ip sp pages =
  let busy = ref 0. and ops = ref 0 in
  List.iteri
    (fun i p ->
      let g0 = Gc.quick_stat () in
      let t0 = now () in
      let r = Webracer.analyze (config p) in
      let j = Webracer.report_to_json r in
      let t1 = now () in
      let s = Json.to_string j in
      let t2 = now () in
      let g1 = Gc.quick_stat () in
      ignore (String.length s);
      let dt = t2 -. t0 in
      keep i r ~verdict_s:dt ~encode_s:(t2 -. t1);
      ip.times <- dt :: ip.times;
      busy := !busy +. dt;
      ops := !ops + r.ops;
      tally c (verdict_ok p r);
      Calib.sample ip.calib;
      match ip.traced with
      | None -> ()
      | Some tr ->
          tr.untraced_s <- tr.untraced_s +. dt;
          tr.untraced_n <- tr.untraced_n + 1;
          tr.minor_words <- tr.minor_words +. (g1.minor_words -. g0.minor_words);
          tr.major <- tr.major + g1.major_collections - g0.major_collections;
          let id = tr.traced_n + 1 in
          let r, bytes = verdict sp ~id p in
          ledger sp ~id p r;
          tr.traced_n <- id;
          tr.ops <- tr.ops + r.ops;
          tr.edges <- tr.edges + r.hb_edges;
          tr.accesses <- tr.accesses + r.accesses;
          tr.records <- tr.records + r.detector_records;
          tr.races <- tr.races + List.length r.races;
          tr.bytes <- tr.bytes + bytes;
          tally c (verdict_ok p r))
    pages;
  let n = float_of_int (List.length pages) in
  ip.rates <- (n /. !busy) :: ip.rates;
  ip.op_rates <- (float_of_int !ops /. !busy) :: ip.op_rates

(* One predict pass. [against], given for the warm-up pass, holds each
   page's report: every dynamic race in it must be predicted. *)
let predict_pass ?against c ip sp pages =
  List.iteri
    (fun i p ->
      let t0 = now () in
      let res = predict sp ~id:(ip.npredict + 1) p in
      ip.ptimes <- (now () -. t0) :: ip.ptimes;
      ip.npredict <- ip.npredict + 1;
      ip.mhp_pairs <- ip.mhp_pairs + res.mhp_pairs;
      ip.predictions <- ip.predictions + List.length res.predictions;
      Option.iter (fun reports -> tally c (predict_ok res reports.(i))) against;
      Calib.sample ip.calib)
    pages

(* The batch path's samples and pool figures. *)
type batch = {
  mutable pages_per_s : float list;  (** one value per timed pass; the leg reports the median *)
  mutable stat_passes : int;  (** passes the pool figures cover *)
  mutable queue_wait_s : float;
  mutable idle_s : float;
  mutable steals : int;
  mutable pool : Wr_support.Pool.t option;
}

(* The [corpus -j] path on the corpus (its 100 sitegen sites, checked
   with [Eval.fidelity]), a fresh pool per pass as [corpus -j] makes
   one. Other populations are a few pages, where starting the domains
   would outweigh the work: one pool over [Webracer.analyze] serves
   every pass, and [batch_close] closes it, so that no idle domain
   takes part in the minor collections of the single-domain legs. *)
let batch ~jobs ~corpus_seed =
  {
    pages_per_s = [];
    stat_passes = 0;
    queue_wait_s = 0.;
    idle_s = 0.;
    steals = 0;
    pool = (if corpus_seed = None then Some (Wr_support.Pool.create ~jobs ()) else None);
  }

let add_pool_stats b (st : Wr_support.Pool.stats) =
  List.iter
    (fun (d : Wr_support.Pool.domain_stats) ->
      b.queue_wait_s <- b.queue_wait_s +. d.queue_wait_s;
      b.idle_s <- b.idle_s +. d.idle_s;
      b.steals <- b.steals + d.steals)
    st.per_domain

(* One pass of the batch path. Untimed passes ([record] false) warm
   it up: on the baseline box the first second or so of parallel passes
   after a single-domain stretch ran at half speed or less. *)
let batch_pass ~record ~jobs ~corpus_seed c b pages =
  let t0 = now () in
  match (corpus_seed, b.pool) with
  | Some seed, _ ->
      let outcomes, st = Wr_sitegen.Eval.run_corpus_stats ~seed ~limit:100 ~jobs () in
      let dt = now () -. t0 in
      if record then begin
        b.pages_per_s <- (100. /. dt) :: b.pages_per_s;
        b.stat_passes <- b.stat_passes + 1;
        add_pool_stats b st;
        List.iter (fun o -> tally c (Wr_sitegen.Eval.fidelity o)) outcomes
      end
  | None, Some pool ->
      let reports = Wr_support.Pool.map pool (fun p -> Webracer.analyze (config p)) pages in
      let dt = now () -. t0 in
      (* The pool's stats cover its whole life, untimed passes included. *)
      b.stat_passes <- b.stat_passes + 1;
      if record then begin
        b.pages_per_s <- (float_of_int (List.length pages) /. dt) :: b.pages_per_s;
        List.iter2 (fun p r -> tally c (verdict_ok p r)) pages reports
      end
  | None, None -> assert false

let batch_close b =
  Option.iter
    (fun pool ->
      b.pool <- None;
      Wr_support.Pool.close pool;
      add_pool_stats b (Wr_support.Pool.stats pool))
    b.pool
