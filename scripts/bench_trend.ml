(* Track the benchmark trajectory across runs.

   Reads a BENCH_results.json (written by `dune exec bench/main.exe`),
   appends it as one JSONL entry to a history file, and compares it
   against the most recent prior entry with the same tag, flagging
   regressions direction-aware, and listing as [dropped] every metric the
   baseline has that this run lacks:

   - names ending in [_speedup] or [_ratio], and [fidelity_sites], are
     higher-is-better;
   - everything else (bechamel ns/run estimates, [*_s] wall-clock
     seconds) is lower-is-better.

   Usage:
     bench_trend [--results FILE] [--history FILE] [--threshold PCT]
                 [--tag STR] [--check] [--speedup-gate [MIN]]

   [--check] exits 1 when any metric regressed past the threshold
   (default 20%). [--min-history N] softens that gate while the history
   is still thin: regressions only fail the run once the history holds
   at least N same-tag entries (counting the one this run appends), so
   a fresh cache or a wiped history re-seeds without breaking CI, and
   the gate hardens by itself from the second run on. Quick
   (`bench --quick`) and full runs use different tags so they are never
   compared against each other.

   [--speedup-gate [MIN]] is an *absolute* gate, independent of any
   history: it fails the run when [perf4/corpus_jobs4_speedup] in the
   current results is below MIN (default {!default_speedup_gate}). It is
   skipped — with a visible message — when [perf4/hardware_domains] is
   below 4, because the pool caps its fleet at the hardware and a small
   runner physically cannot show a 4-job speedup. This is the hard
   "the fleet must actually scale" contract: trend thresholds compare
   run-over-run, the gate pins the floor. *)

module Json = Wr_support.Json

let results_path = ref "BENCH_results.json"
let history_path = ref "BENCH_history.jsonl"
let threshold = ref 20.
let tag = ref "full"
let check = ref false
let min_history = ref 0

(* THE parallel-speedup floor: jobs:4 must beat sequential by at least
   this factor on hardware with >= 4 domains. Referenced by README.md
   and .github/workflows/ci.yml — change it here, nowhere else. *)
let default_speedup_gate = 1.5

(* [None] = gate off; [Some m] = fail when corpus_jobs4_speedup < m. *)
let speedup_gate : float option ref = ref None

let usage () =
  prerr_endline
    "usage: bench_trend [--results FILE] [--history FILE] [--threshold PCT] \
     [--tag STR] [--check] [--min-history N] [--speedup-gate [MIN]]";
  exit 2

let rec parse_args = function
  | [] -> ()
  | "--results" :: v :: rest ->
      results_path := v;
      parse_args rest
  | "--history" :: v :: rest ->
      history_path := v;
      parse_args rest
  | "--threshold" :: v :: rest ->
      (match float_of_string_opt v with
      | Some t when t > 0. -> threshold := t
      | _ -> usage ());
      parse_args rest
  | "--tag" :: v :: rest ->
      tag := v;
      parse_args rest
  | "--check" :: rest ->
      check := true;
      parse_args rest
  | "--min-history" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n >= 0 -> min_history := n
      | _ -> usage ());
      parse_args rest
  | "--speedup-gate" :: rest -> (
      (* MIN is optional: bare [--speedup-gate] takes the default floor. *)
      match rest with
      | v :: rest' when float_of_string_opt v <> None ->
          (match float_of_string_opt v with
          | Some m when m > 0. -> speedup_gate := Some m
          | _ -> usage ());
          parse_args rest'
      | _ ->
          speedup_gate := Some default_speedup_gate;
          parse_args rest)
  | _ -> usage ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* "section/name" -> numeric value, for every number in the document. *)
let flatten json =
  match json with
  | Json.Obj sections ->
      List.concat_map
        (fun (sec, v) ->
          match v with
          | Json.Obj entries ->
              List.filter_map
                (fun (name, v) ->
                  match v with
                  | Json.Float f -> Some (sec ^ "/" ^ name, f)
                  | Json.Int i -> Some (sec ^ "/" ^ name, float_of_int i)
                  | _ -> None)
                entries
          | _ -> [])
        sections
  | _ -> []

let ends_with ~suffix s =
  let sl = String.length suffix and l = String.length s in
  l >= sl && String.sub s (l - sl) sl = suffix

let contains ~sub s =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let higher_is_better name =
  ends_with ~suffix:"_speedup" name
  || ends_with ~suffix:"_ratio" name
  || ends_with ~suffix:"_rps" name
  || ends_with ~suffix:"fidelity_sites" name

(* Tail percentiles (perf7's p999 latencies) keep the default
   lower-is-better direction but are an order of magnitude noisier than
   means on a shared runner: compare them against a widened threshold so
   one p999 wobble never fails the gate by itself. *)
let tail_metric name = contains ~sub:"_p999" name

(* Recorded for context, never trend-compared: hardware_domains is
   environment metadata (a runner change is not a regression), steal
   counts are scheduling noise by nature — load balance varies run to
   run without the result or the wall clock moving — and perf7's shed
   counts scale with how many requests a runner managed to push in the
   measured window, not with how well the daemon behaved. [config_*]
   entries (perf8's schedule budget and site count) are experiment
   configuration, not measurements: a deliberate budget bump must not
   read as a regression. The perf8 schedule counts themselves
   (guided_confirm_schedules, blind_schedules) keep the default
   lower-is-better direction, and blind_over_guided_confirmation_ratio
   picks up higher-is-better from its [_ratio] suffix. *)
let informational name =
  ends_with ~suffix:"hardware_domains" name
  || ends_with ~suffix:"_steals" name
  || ends_with ~suffix:"_shed" name
  || contains ~sub:"config_" name

(* The previous history entry with our tag (if any), and how many
   same-tag entries the history already holds. *)
let last_baseline () =
  if not (Sys.file_exists !history_path) then (0, None)
  else
    let ic = open_in !history_path in
    let best = ref None in
    let n = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then
           match Json.of_string line with
           | Json.Obj fields -> (
               match List.assoc_opt "tag" fields with
               | Some (Json.String t) when t = !tag -> (
                   incr n;
                   match List.assoc_opt "results" fields with
                   | Some r -> best := Some (List.assoc_opt "ts" fields, r)
                   | None -> ())
               | _ -> ())
           | _ | (exception Json.Parse_error _) -> ()
       done
     with End_of_file -> ());
    close_in_noerr ic;
    (!n, !best)

let append_history results =
  let entry =
    Json.Obj
      [
        ("ts", Json.Float (Unix.gettimeofday ()));
        ("tag", Json.String !tag);
        ("results", results);
      ]
  in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 !history_path
  in
  output_string oc (Json.to_string entry ^ "\n");
  close_out oc

type delta = { name : string; before : float; after : float; change_pct : float }

(* Absolute speedup floor; [current] is the flattened results. Returns
   [true] when the gate (if armed) passes or is skipped. *)
let speedup_gate_ok current =
  match !speedup_gate with
  | None -> true
  | Some floor -> (
      let metric = "perf4/corpus_jobs4_speedup" in
      match List.assoc_opt "perf4/hardware_domains" current with
      | Some hw when hw < 4. ->
          Printf.printf
            "bench_trend: speedup gate skipped — runner has %.0f hardware \
             domain%s (< 4), parallel speedup is physically out of reach\n"
            hw
            (if hw = 1. then "" else "s");
          true
      | None ->
          Printf.printf
            "bench_trend: speedup gate skipped — results carry no \
             perf4/hardware_domains (bench ran without perf4?)\n";
          true
      | Some _ -> (
          match List.assoc_opt metric current with
          | None ->
              Printf.printf
                "bench_trend: speedup gate FAILED — %s missing from results\n"
                metric;
              false
          | Some s when s < floor ->
              Printf.printf
                "bench_trend: speedup gate FAILED — %s = %.2fx, floor is %.2fx\n"
                metric s floor;
              false
          | Some s ->
              Printf.printf "bench_trend: speedup gate ok — %s = %.2fx (floor %.2fx)\n"
                metric s floor;
              true))

let () =
  parse_args (List.tl (Array.to_list Sys.argv));
  let results =
    match Json.of_string (read_file !results_path) with
    | j -> j
    | exception Sys_error msg ->
        Printf.eprintf "bench_trend: cannot read %s: %s\n" !results_path msg;
        exit 2
    | exception Json.Parse_error msg ->
        Printf.eprintf "bench_trend: %s is not JSON: %s\n" !results_path msg;
        exit 2
  in
  let current = flatten results in
  let prior_entries, baseline = last_baseline () in
  append_history results;
  (* Entries with our tag now in the history, this run's included. *)
  let history_depth = prior_entries + 1 in
  let trend_failed = ref false in
  (match baseline with
  | None ->
      Printf.printf
        "bench_trend: recorded baseline (%d metrics, tag %S) in %s — nothing \
         to compare yet\n"
        (List.length current) !tag !history_path
  | Some (_, prev_json) ->
      let prev = flatten prev_json in
      let regressions = ref [] and improvements = ref [] in
      List.iter
        (fun (name, after) ->
          match List.assoc_opt name prev with
          | _ when informational name -> ()
          | None -> ()
          | Some before when Float.abs before < 1e-12 -> ()
          | Some before ->
              let change_pct = (after -. before) /. Float.abs before *. 100. in
              (* Positive [worse] means the metric moved the wrong way. *)
              let worse =
                if higher_is_better name then -.change_pct else change_pct
              in
              let thr =
                if tail_metric name then 3. *. !threshold else !threshold
              in
              let d = { name; before; after; change_pct } in
              if worse > thr then regressions := d :: !regressions
              else if worse < -.thr then improvements := d :: !improvements)
        current;
      let print_delta label d =
        Printf.printf "  %-10s %-45s %12.4g -> %-12.4g (%+.1f%%)\n" label d.name
          d.before d.after d.change_pct
      in
      Printf.printf "bench_trend: %d metrics vs previous %S run (threshold %.0f%%)\n"
        (List.length current) !tag !threshold;
      List.iter (print_delta "REGRESSED") (List.rev !regressions);
      List.iter (print_delta "improved") (List.rev !improvements);
      (* A metric the baseline has and this run lacks was removed or
         renamed: show it, so a deleted bench row never vanishes unseen. *)
      let dropped = List.filter (fun (name, _) -> not (List.mem_assoc name current)) prev in
      List.iter
        (fun (name, before) ->
          Printf.printf "  %-10s %-45s %12.4g -> (absent)\n" "dropped" name before)
        dropped;
      if !regressions = [] && !improvements = [] && dropped = [] then
        print_endline "  all metrics within threshold";
      if !check && !regressions <> [] then
        if history_depth >= !min_history then trend_failed := true
        else
          Printf.printf
            "bench_trend: not failing — history holds %d %S entr%s, gate \
             hardens at %d\n"
            history_depth !tag
            (if history_depth = 1 then "y" else "ies")
            !min_history);
  (* The absolute speedup floor applies from the very first run: it
     needs no baseline, so [--min-history] does not soften it. *)
  let gate_failed = not (speedup_gate_ok current) in
  if !trend_failed || gate_failed then exit 1
