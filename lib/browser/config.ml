type t = {
  seed : int;
  page : string;
  resources : (string * string) list;
  time_limit : float;
  fuel : int;
  mean_latency : float;
  parse_delay : float;
  explore : bool;
  trace : bool;
  dedup : bool;
  bias : Wr_scheduler.Event_loop.bias;
  telemetry : Wr_telemetry.Telemetry.t;
}

let default ~page () =
  {
    seed = 0;
    page;
    resources = [];
    time_limit = 60_000.;
    fuel = 5_000_000;
    mean_latency = 20.;
    parse_delay = 0.;
    explore = true;
    trace = false;
    dedup = true;
    bias = Wr_scheduler.Event_loop.neutral;
    telemetry = Wr_telemetry.Telemetry.disabled;
  }
