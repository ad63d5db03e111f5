(** WebRacer — dynamic race detection for (simulated) web applications.

    The top-level API reproducing the paper's tool: load a page in the
    instrumented browser, optionally run automatic exploration (§5.2.2),
    and report the races found by the happens-before detector, raw and
    with the §5.3 filters applied.

    {[
      let report =
        Webracer.analyze
          (Webracer.config ~page:"<script>x = 1;</script><iframe src=\"a.html\">"
             ~resources:[ ("a.html", "<script>x = 2;</script>") ]
             ())
      in
      List.iter (fun r -> Format.printf "%a@." Wr_detect.Race.pp r) report.races
    ]} *)

module Config = Wr_browser.Config
module Race = Wr_detect.Race

type report = {
  races : Race.t list;  (** raw reports, discovery order, one per location *)
  filtered : Race.t list;  (** after the §5.3 form-field + single-dispatch filters *)
  suppressed : (string * Race.t) list;
      (** (filter name, race) attribution for each suppressed report *)
  filter_counts : (string * int) list;
      (** per-filter suppression tally ({!Wr_detect.Filters.outcome}) *)
  crashes : Wr_browser.Browser.crash list;
      (** script crashes the browser swallowed during the run *)
  console : string list;
  ops : int;  (** operations in the happens-before graph *)
  hb_edges : int;
  accesses : int;  (** instrumented accesses observed (raw, pre-dedup) *)
  detector_records : int;
      (** accesses the detector actually processed after the
          [Wr_detect.Dedup] front-end; equals [accesses] with dedup off *)
  virtual_ms : float;  (** virtual time consumed by the page *)
  explored_events : int;  (** user events injected by automatic exploration *)
  wall_clock_s : float;  (** real time spent analyzing *)
  hb_graph : Wr_hb.Graph.t;
      (** the run's happens-before graph (render with
          [Wr_hb.Graph.to_dot]) *)
  trace : Wr_detect.Trace.t option;
      (** the recorded execution trace when [config ~trace:true] *)
}

(** [config ~page ()] builds a configuration (see {!Config.default}).
    [resources] maps URLs to bodies for external scripts, frames, images
    and XHR. *)
val config :
  page:string ->
  ?resources:(string * string) list ->
  ?seed:int ->
  ?explore:bool ->
  ?time_limit:float ->
  ?mean_latency:float ->
  ?parse_delay:float ->
  ?trace:bool ->
  ?dedup:bool ->
  ?bias:Wr_scheduler.Event_loop.bias ->
  ?telemetry:Wr_telemetry.Telemetry.t ->
  unit ->
  Config.t

(** [analyze config] runs the full pipeline: page load, automatic
    exploration (typing into every text field, dispatching every
    registered exploration-set handler, clicking [javascript:] links),
    then reporting. Deterministic in [config.seed]. *)
val analyze : Config.t -> report

(** [analyze_batch ?jobs cfgs] analyzes each configuration, spread over a
    [Wr_support.Pool] of [jobs] domains (default 1 = sequential), and
    returns the reports in input order regardless of completion order.
    Each run owns its whole stack (graph, detector, VM, RNG), so runs
    share no unguarded mutable state and the aggregate is byte-identical
    across [jobs] settings (modulo [wall_clock_s]). Configs may share an
    enabled [Wr_telemetry.Telemetry.t]: each worker domain records into
    its own sink and readers merge, so parallel batches profile exactly
    like sequential ones. *)
val analyze_batch : ?jobs:int -> Config.t list -> report list

type merged_report = {
  runs : report list;
  merged : Race.t list;  (** union across runs, first occurrence kept *)
  per_run_counts : int list;  (** raw race count per seed, in seed order *)
  stable : bool;  (** all runs reported the same race set *)
}

(** [analyze_many config ~seeds] analyzes the page once per seed and
    merges the reports: races deduplicated across runs by (type, location
    rendering), with per-run counts alongside. The paper observes that
    "races reported across different runs for the same site had little
    variance" (footnote 14); this makes that check mechanical and catches
    schedule-dependent stragglers a single run misses. [jobs] runs the
    seeds in parallel ({!analyze_batch}); the merge is seed-ordered either
    way, and [cfg]'s telemetry context (if enabled) records every run —
    per domain in the parallel path, merged at read time. *)
val analyze_many : ?jobs:int -> Config.t -> seeds:int list -> merged_report

(** [count_by_type races] tallies (html, function, variable, dispatch) —
    the per-site row shape of Tables 1 and 2. *)
val count_by_type : Race.t list -> int * int * int * int

(** [pp_report] renders a human-readable summary. *)
val pp_report : Format.formatter -> report -> unit

(** [report_to_json report] renders the full report for tooling, under a
    top-level ["schema_version"] ({!Wr_support.Schema.version}; the full
    schema is documented in DESIGN.md). Each race (raw and filtered)
    carries a ["witness"] object — provenance chains, nearest common HB
    ancestor, no-path frontier and certificate status from [Wr_explain]
    — and the report carries the per-filter suppression attribution
    (["suppressed"], ["filter_suppressed"]). The [webracer serve]
    [analyze] verb returns exactly this document. *)
val report_to_json : report -> Wr_support.Json.t

(** Adversarial replay: make a detected race {e manifest}.

    WebRacer reports races from a single execution via happens-before
    reasoning — the bad interleaving need not have happened. This
    extension re-runs the same page under many alternative schedules
    (different network-latency seeds, with parsing given a nonzero virtual
    cost so resource arrivals can interleave with it) and reports which
    schedules made the race observable: a script crash the browser hid, or
    divergent console output. It automates the verification step the
    paper's authors performed manually when classifying races as harmful
    (§6.3). *)
module Replay : sig
  type observation = {
    seed : int;
    crashes : string list;  (** crash messages the browser swallowed *)
    console : string list;
    races : int;  (** raw races detected under this schedule *)
  }

  type verdict = {
    observations : observation list;
    crashing_seeds : int list;
    console_variants : string list list;  (** distinct console outputs *)
  }

  (** [explore_schedules ?jobs config ~seeds ?parse_delay ()] re-runs
      [config] once per seed with [parse_delay] (default 2 ms/element);
      the base config's own seed is ignored. [jobs] spreads the
      schedules over {!analyze_batch}'s domain pool; observations stay
      seed-ordered (and the verdict identical) whatever [jobs] is, and
      [config]'s telemetry context records every schedule. *)
  val explore_schedules :
    ?jobs:int -> Config.t -> seeds:int list -> ?parse_delay:float -> unit -> verdict

  (** [manifests verdict] — some schedule crashed, or schedules disagree
      on console output: direct evidence the nondeterminism is
      observable. *)
  val manifests : verdict -> bool

  val pp_verdict : Format.formatter -> verdict -> unit

  (** [verdict_to_json v] renders the verdict for tooling (schedule
      count, manifest flag, crashing seeds, console variants, per-seed
      observations) under a top-level ["schema_version"]; the serve
      [replay] verb returns exactly this document. *)
  val verdict_to_json : verdict -> Wr_support.Json.t

  (** One guided schedule: a named (seed, parse_delay, channel bias)
      triple. The static triage layer derives these from the predicted
      race's MHP ancestry — see [Wr_static.Triage]. *)
  type directed = {
    label : string;
    dir_seed : int;
    dir_parse_delay : float;
    dir_bias : Wr_scheduler.Event_loop.bias;
  }

  (** [run_directed ?jobs config specs] analyzes [config] once per
      directed schedule, traces forced on, reports in spec order
      whatever [jobs] is. This is the guided replacement for blind
      {!explore_schedules}: each run perturbs only the channels its
      directive names. *)
  val run_directed : ?jobs:int -> Config.t -> directed list -> report list
end
