(** The ahead-of-time race predictor (DESIGN.md §8).

    Intersects the effect sets of may-happen-in-parallel units under the
    dynamic detector's conflict rules and classifies the surviving pairs
    into the paper's race classes. Deduplicated to one prediction per
    (type, location), matching the dynamic one-report-per-location
    rule. *)

type prediction = {
  race_type : Wr_detect.Race.race_type;
  loc : Effects.sloc;  (** the more concrete of the two effect locations *)
  first_unit : int;
  second_unit : int;
  first_eff : Effects.eff;
  second_eff : Effects.eff;
}

type lint_finding =
  | Duplicate_id of { doc : int; id : string; count : int }
  | Handler_on_missing_id of {
      doc : int;
      id : string;
      event : string;
      registered_by : string;
    }
  | Write_only_global of { name : string; written_by : string }

type result = {
  model : Model.t;
  predictions : prediction list;
  mhp_pairs : int;
  lint : lint_finding list;
}

(** [predict ~page ~resources ()] builds the static model and reports
    predicted races and lint findings. Never raises on malformed pages. *)
val predict :
  ?tm:Wr_telemetry.Telemetry.t ->
  page:string ->
  resources:(string * string) list ->
  unit ->
  result

(** [find_conflicts m] — every conflicting effect pair of every MHP unit
    pair [(i, j)], [i < j], before deduplication: ordered by [i], then
    [j], then [i]'s effects, then [j]'s effects. [predict] deduplicates
    this list. *)
val find_conflicts : Model.t -> prediction list

(** [count_by_type preds] tallies (html, function, variable, dispatch). *)
val count_by_type : prediction list -> int * int * int * int

val prediction_to_json : Model.t -> prediction -> Wr_support.Json.t

val lint_to_json : lint_finding -> Wr_support.Json.t

(** [to_json ?compare r] — the [schema_version]-stamped predict document;
    [compare] (from {!Compare}) is appended under ["compare"]. *)
val to_json : ?compare:Wr_support.Json.t -> result -> Wr_support.Json.t
