(** Full-history race detector — the reference closing the §5.1 gap.

    The paper's single-slot detector can miss races: with accesses
    [1: read e], [2: write e], [3: read e], [1 -> 2] and schedule
    [3 · 1 · 2], the write at [2] only sees the most recent read [1] and
    never compares against [3]. This detector keeps {e all} prior accesses
    per location (until the location's one allowed report fires, after
    which its history is dropped), so every unordered conflicting pair is
    found regardless of schedule. No run configuration selects it: the
    tests, the Abl-2 benchmark (what the extra recall costs in time and
    space) and [Trace.replay ~detector] compare against it. *)

val create : Wr_hb.Graph.t -> Detector.t
