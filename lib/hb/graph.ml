type node = {
  info : Op.info;
  mutable preds : Op.id list;
  mutable succs : Op.id list;
  mutable last_succ : Op.id;  (* most recently added successor; -1 if none *)
  ancestors : Wr_support.Bitset.t;  (* every op that happens-before this one *)
}

type t = {
  mutable nodes : node array;  (* dense array indexed by op id *)
  mutable count : int;
  mutable edges : int;
  edge_set : (Op.id * Op.id, unit) Hashtbl.t;  (* O(1) duplicate-edge check *)
}

let create () = { nodes = [||]; count = 0; edges = 0; edge_set = Hashtbl.create 1024 }

let node t id =
  if id < 0 || id >= t.count then
    invalid_arg (Printf.sprintf "Hb.Graph: unknown operation id %d" id);
  t.nodes.(id)

(* Fills the unused tail of [nodes]; never read, since ids are checked
   against [count]. *)
let padding =
  { info = { Op.id = -1; kind = Op.Initial; label = "" }; preds = []; succs = [];
    last_succ = -1; ancestors = Wr_support.Bitset.create 0 }

let fresh t kind ~label =
  let id = t.count in
  if id >= Array.length t.nodes then begin
    let nodes = Array.make (max 64 (Array.length t.nodes * 2)) padding in
    Array.blit t.nodes 0 nodes 0 t.count;
    t.nodes <- nodes
  end;
  t.nodes.(id) <-
    { info = { Op.id; kind; label }; preds = []; succs = []; last_succ = -1;
      ancestors = Wr_support.Bitset.create 64 };
  t.count <- id + 1;
  id

let info t id = (node t id).info

let n_ops t = t.count

let n_edges t = t.edges

(* Closure invariant: if [a] is in ancestors[n] then ancestors[a] is a
   subset of ancestors[n]. [propagate] restores it along successors after a
   new edge lands on a node that already has successors. *)
let rec propagate t a anc_a n =
  let node_n = t.nodes.(n) in
  let anc_n = node_n.ancestors in
  if not (Wr_support.Bitset.mem anc_n a) then begin
    Wr_support.Bitset.union_into ~into:anc_n anc_a;
    Wr_support.Bitset.add anc_n a;
    List.iter (propagate t a anc_a) node_n.succs
  end

let add_edge t a b =
  if a >= b then
    invalid_arg
      (Printf.sprintf
         "Hb.Graph.add_edge: %d -> %d violates topological construction (edges must point \
          from an older operation to a newer one)"
         a b);
  let na = node t a and nb = node t b in
  (* Duplicate insertions are common (every access-pair rule re-derives the
     same edge) and used to pay O(out-degree) in [List.mem]; the last-succ
     slot catches the consecutive-repeat pattern for free and the edge set
     answers the rest in O(1), so dense pages no longer go quadratic. *)
  if na.last_succ <> b && not (Hashtbl.mem t.edge_set (a, b)) then begin
    na.last_succ <- b;
    Hashtbl.add t.edge_set (a, b) ();
    na.succs <- b :: na.succs;
    nb.preds <- a :: nb.preds;
    t.edges <- t.edges + 1;
    propagate t a na.ancestors b
  end

let happens_before t a b =
  if a = b then false
  else begin
    ignore (node t a);
    Wr_support.Bitset.mem (node t b).ancestors a
  end

(* The paper's query (§5.2.1): a backward traversal from [b] looking for a
   path to [a]. Ids decrease along pred edges, so nodes below [a] are
   pruned. *)
let happens_before_dfs t a b =
  if a = b then false
  else begin
    ignore (node t a);
    ignore (node t b);
    let visited = Wr_support.Bitset.create t.count in
    let rec search = function
      | [] -> false
      | n :: rest ->
          if n = a then true
          else if n < a || Wr_support.Bitset.mem visited n then search rest
          else begin
            Wr_support.Bitset.add visited n;
            search (List.rev_append t.nodes.(n).preds rest)
          end
    in
    search [ b ]
  end

let chc t a b = a <> b && (not (happens_before t a b)) && not (happens_before t b a)

let preds t id = (node t id).preds

let succs t id = (node t id).succs

let iter_ops f t =
  for i = 0 to t.count - 1 do
    f t.nodes.(i).info
  done

let dot_color = function
  | Op.Initial -> "gray"
  | Op.Parse -> "lightblue"
  | Op.Script -> "palegreen"
  | Op.Timeout_callback | Op.Interval_callback _ -> "khaki"
  | Op.Dispatch_anchor _ -> "plum"
  | Op.Handler _ -> "lightpink"
  | Op.User -> "orange"
  | Op.Segment _ -> "lightcyan"

let dot_escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | '\n' -> "\\n"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

(* Shared renderer behind [to_dot] (all nodes) and [to_dot_subgraph] (a
   selection). [include_node] restricts both the node list and the edges;
   [highlight_edges] render bold red (witness paths). Successor lists are
   deduplicated in the output so a node never prints the same edge twice. *)
let render_dot ~include_node ~highlight ~highlight_edges t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph happens_before {\n  rankdir=TB;\n  node [style=filled];\n";
  iter_ops
    (fun info ->
      if include_node info.Op.id then begin
        let extra =
          if List.mem info.Op.id highlight then ", color=red, penwidth=3" else ""
        in
        Buffer.add_string buf
          (Printf.sprintf "  n%d [label=\"#%d %s\", fillcolor=%s%s];\n" info.Op.id info.Op.id
             (dot_escape info.Op.label)
             (dot_color info.Op.kind) extra)
      end)
    t;
  for i = 0 to t.count - 1 do
    if include_node i then
      List.iter
        (fun succ ->
          if include_node succ then
            let attrs =
              if List.mem (i, succ) highlight_edges then
                " [color=red, penwidth=2.5, style=bold]"
              else ""
            in
            Buffer.add_string buf (Printf.sprintf "  n%d -> n%d%s;\n" i succ attrs))
        (List.sort_uniq compare t.nodes.(i).succs)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_dot ?(highlight = []) ?(highlight_edges = []) t =
  render_dot ~include_node:(fun _ -> true) ~highlight ~highlight_edges t

let to_dot_subgraph ?(highlight = []) ?(highlight_edges = []) ~nodes t =
  let wanted = Wr_support.Bitset.create (max 1 t.count) in
  List.iter
    (fun id -> if id >= 0 && id < t.count then Wr_support.Bitset.add wanted id)
    nodes;
  render_dot ~include_node:(Wr_support.Bitset.mem wanted) ~highlight ~highlight_edges t
