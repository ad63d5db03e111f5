(** Browser run configuration. *)

type t = {
  seed : int;  (** drives network latencies and [Math.random] *)
  page : string;  (** HTML of the main page *)
  resources : (string * string) list;  (** URL -> body for scripts/frames/xhr *)
  time_limit : float;
      (** virtual-ms horizon; bounds pages with unbounded [setInterval]
          chains *)
  fuel : int;  (** evaluation-step budget per operation *)
  mean_latency : float;  (** mean simulated fetch latency (ms) *)
  parse_delay : float;
      (** virtual ms consumed per parsed element. 0 (default) parses the
          whole page before any network arrival, like a fast machine; > 0
          lets resource arrivals interleave with parsing, making
          race-induced crashes (Figs. 3-4) observable — the adversarial
          replay mode uses this *)
  explore : bool;  (** §5.2.2 automatic exploration *)
  trace : bool;
      (** record the full execution trace (operations, edges, accesses)
          for offline analysis — see [Wr_detect.Trace] *)
  dedup : bool;
      (** per-operation access deduplication in front of the detector
          (see [Wr_detect.Dedup]) — semantics-preserving, on by default;
          turn off to measure raw detector pressure *)
  bias : Wr_scheduler.Event_loop.bias;
      (** per-channel delay transform for guided (triage-directed)
          schedules; {!Wr_scheduler.Event_loop.neutral} by default *)
  telemetry : Wr_telemetry.Telemetry.t;
      (** spans/counters/histograms across the pipeline; the disabled
          default is a near-no-op (see [Wr_telemetry.Telemetry]) *)
}

(** [default ~page ()] — seed 0, no extra resources, 60 s virtual horizon,
    exploration on. Every run uses the paper's detector
    ([Wr_detect.Last_access]). *)
val default : page:string -> unit -> t
