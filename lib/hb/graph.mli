(** The happens-before graph (paper §3.3, §5.2.1).

    The browser registers operations and adds the edges mandated by rules
    1-17 as execution proceeds; the race detector asks "can these two
    operations happen concurrently?" ({!chc}). The relation queried is the
    transitive closure of the added edges.

    Each operation keeps an incremental transitive-closure bitset of its
    ancestors, updated as edges land, so {!happens_before} is one bit
    lookup (quadratic bits of memory in the worst case). The paper answers
    the same query by a backward graph traversal ("repeated graph
    traversals contribute to the high overhead", §5.2.1); that traversal
    survives as {!happens_before_dfs}, the reference the tests check the
    closure against.

    The graph relies on edges being added in topological order: an edge
    [a -> b] may only be added while [b] has not yet finished being wired up
    (in practice, [a] was created before [b]). Adding a cycle is therefore
    impossible by construction, but {!add_edge} checks [a <> b]. *)

type t

(** [create ()] returns an empty graph. *)
val create : unit -> t

(** [fresh t kind ~label] registers a new operation and returns its id. *)
val fresh : t -> Op.kind -> label:string -> Op.id

(** [info t id] retrieves the operation's metadata. Raises [Invalid_argument]
    on an unknown id. *)
val info : t -> Op.id -> Op.info

(** [n_ops t] is the number of registered operations. *)
val n_ops : t -> int

(** [n_edges t] is the number of direct edges added. *)
val n_edges : t -> int

(** [add_edge t a b] records that [a] happens-before [b]. Requires [a < b]
    (operations are created in schedule order, so every rule's edge points
    from an older operation to a newer one); raises [Invalid_argument]
    otherwise. Duplicate edges are ignored. *)
val add_edge : t -> Op.id -> Op.id -> unit

(** [happens_before t a b] holds iff [a -> b] is in the transitive closure
    (strict: [happens_before t a a = false]). *)
val happens_before : t -> Op.id -> Op.id -> bool

(** [happens_before_dfs t a b] answers the same query as
    {!happens_before} by the paper's backward traversal from [b] (§5.2.1),
    in time linear in the graph. It is the reference oracle for the
    closure; production code queries {!happens_before}. *)
val happens_before_dfs : t -> Op.id -> Op.id -> bool

(** [chc t a b] — Can-Happen-Concurrently: [a <> b] and neither
    happens-before the other (paper §5.1). *)
val chc : t -> Op.id -> Op.id -> bool

(** [preds t id] / [succs t id] expose direct edges, for tests and
    diagnostics. *)
val preds : t -> Op.id -> Op.id list

val succs : t -> Op.id -> Op.id list

(** [iter_ops f t] visits all operations in id order. *)
val iter_ops : (Op.info -> unit) -> t -> unit

(** [to_dot ?highlight ?highlight_edges t] renders the direct-edge graph
    in Graphviz DOT (operations labelled and colored by kind; ids in
    [highlight] drawn bold red — used to mark a race's endpoints; direct
    edges in [highlight_edges] drawn bold red — used to mark witness
    paths). Duplicate successor entries are deduplicated in the output. *)
val to_dot : ?highlight:Op.id list -> ?highlight_edges:(Op.id * Op.id) list -> t -> string

(** [to_dot_subgraph ?highlight ?highlight_edges ~nodes t] renders only
    the operations in [nodes] (ids outside the graph are ignored) and the
    direct edges between them — full-page graphs are unreadable, so race
    witnesses export just their evidence ops. Highlights as {!to_dot}. *)
val to_dot_subgraph :
  ?highlight:Op.id list -> ?highlight_edges:(Op.id * Op.id) list -> nodes:Op.id list -> t -> string
