(** Growable dense bitsets over non-negative integers.

    Members live in 64-bit words: a [Bytes.t] padded to a multiple of 8,
    byte [b] holding members [8b .. 8b+7]. Single-member operations touch
    one byte; [union_into], [cardinal] and [iter_absent] work a whole
    little-endian word at a time, so they cost O(capacity / 64).

    Two users:
    - the incremental transitive-closure HB engine in [Wr_hb.Graph]: each
      operation's ancestor set, indexed by operation id;
    - the static MHP relation in [Wr_static.Model]: each code unit's
      descendant set, indexed by unit id, whose absent members after the
      unit are exactly the units that may happen in parallel with it. *)

type t

(** [create n] is an empty set able to hold members [< n] without growing. *)
val create : int -> t

(** [mem t i] tests membership; [i] beyond the current capacity is absent. *)
val mem : t -> int -> bool

(** [add t i] inserts [i], growing as needed. Raises [Invalid_argument] on a
    negative index. *)
val add : t -> int -> unit

(** [remove t i] deletes [i] if present. *)
val remove : t -> int -> unit

(** [union_into ~into src] adds every member of [src] to [into]. *)
val union_into : into:t -> t -> unit

(** [cardinal t] counts members. *)
val cardinal : t -> int

(** [iter f t] applies [f] to each member in increasing order. *)
val iter : (int -> unit) -> t -> unit

(** [iter_absent f t ~lo ~hi] applies [f] to each non-member of [\[lo, hi)]
    in increasing order (negative integers are skipped, integers beyond
    the capacity are absent). Words with every bit set are skipped whole. *)
val iter_absent : (int -> unit) -> t -> lo:int -> hi:int -> unit

(** [copy t] is an independent copy. *)
val copy : t -> t

(** [clear t] removes all members, keeping capacity. *)
val clear : t -> unit
