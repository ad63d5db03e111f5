(* Unit and property tests for the happens-before graph. *)

open Wr_hb

let mk = Graph.create

let op g label = Graph.fresh g Op.Script ~label

let test_empty_graph () =
  let g = mk () in
  let a = op g "a" and b = op g "b" in
  Alcotest.(check bool) "no hb" false (Graph.happens_before g a b);
  Alcotest.(check bool) "chc" true (Graph.chc g a b);
  Alcotest.(check bool) "chc self" false (Graph.chc g a a)

let test_direct_edge () =
  let g = mk () in
  let a = op g "a" and b = op g "b" in
  Graph.add_edge g a b;
  Alcotest.(check bool) "a -> b" true (Graph.happens_before g a b);
  Alcotest.(check bool) "not b -> a" false (Graph.happens_before g b a);
  Alcotest.(check bool) "not concurrent" false (Graph.chc g a b)

let test_transitivity () =
  let g = mk () in
  let a = op g "a" and b = op g "b" and c = op g "c" and d = op g "d" in
  Graph.add_edge g a b;
  Graph.add_edge g b c;
  Graph.add_edge g c d;
  Alcotest.(check bool) "a -> d" true (Graph.happens_before g a d);
  Alcotest.(check bool) "a -> c" true (Graph.happens_before g a c);
  Alcotest.(check bool) "not d -> a" false (Graph.happens_before g d a)

let test_diamond () =
  let g = mk () in
  let a = op g "a" and b = op g "b" and c = op g "c" and d = op g "d" in
  Graph.add_edge g a b;
  Graph.add_edge g a c;
  Graph.add_edge g b d;
  Graph.add_edge g c d;
  Alcotest.(check bool) "a -> d" true (Graph.happens_before g a d);
  Alcotest.(check bool) "b, c concurrent" true (Graph.chc g b c)

let test_late_edge_propagation () =
  (* An edge added after the target already has successors must propagate
     through the closure. *)
  let g = mk () in
  let a = op g "a" and b = op g "b" and c = op g "c" in
  Graph.add_edge g b c;
  Graph.add_edge g a b;
  Alcotest.(check bool) "a -> c via late edge" true (Graph.happens_before g a c)

let test_self_and_backward_edges_rejected () =
  let g = mk () in
  let a = op g "a" and b = op g "b" in
  Graph.add_edge g a b;
  (match Graph.add_edge g a a with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "self edge accepted");
  match Graph.add_edge g b a with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "backward edge accepted"

let test_duplicate_edges_ignored () =
  let g = mk () in
  let a = op g "a" and b = op g "b" in
  Graph.add_edge g a b;
  Graph.add_edge g a b;
  Alcotest.(check int) "one edge" 1 (Graph.n_edges g)

let test_info () =
  let g = mk () in
  let a = Graph.fresh g Op.Parse ~label:"div#x" in
  let info = Graph.info g a in
  Alcotest.(check string) "label" "div#x" info.Op.label;
  Alcotest.(check string) "kind" "parse" (Op.kind_name info.Op.kind);
  match Graph.info g 99 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown id accepted"

(* Random DAG generator for property tests: edges only i -> j with i < j. *)
let random_dag_gen =
  QCheck.Gen.(
    int_range 2 40 >>= fun n ->
    let all_pairs =
      List.concat (List.init n (fun i -> List.init (n - i - 1) (fun k -> (i, i + k + 1))))
    in
    let m = List.length all_pairs in
    list_size (int_bound (min m (3 * n))) (int_bound (max 0 (m - 1))) >>= fun picks ->
    return (n, List.map (List.nth all_pairs) picks))

let build (n, edges) =
  let g = Graph.create () in
  for i = 0 to n - 1 do
    ignore (Graph.fresh g Op.Script ~label:(string_of_int i))
  done;
  List.iter (fun (a, b) -> Graph.add_edge g a b) edges;
  g

let prop_closure_matches_dfs =
  QCheck.Test.make ~name:"closure = dfs reference" ~count:100
    (QCheck.make random_dag_gen) (fun (n, edges) ->
      let g = build (n, edges) in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if Graph.happens_before g a b <> Graph.happens_before_dfs g a b then ok := false
        done
      done;
      !ok)

let prop_chc_symmetric =
  QCheck.Test.make ~name:"chc is symmetric and irreflexive" ~count:100
    (QCheck.make random_dag_gen) (fun (n, edges) ->
      let g = build (n, edges) in
      let ok = ref true in
      for a = 0 to n - 1 do
        if Graph.chc g a a then ok := false;
        for b = 0 to n - 1 do
          if Graph.chc g a b <> Graph.chc g b a then ok := false
        done
      done;
      !ok)

let prop_hb_transitive =
  QCheck.Test.make ~name:"happens-before is transitive" ~count:60
    (QCheck.make random_dag_gen) (fun (n, edges) ->
      let g = build (n, edges) in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if Graph.happens_before g a b then
            for c = 0 to n - 1 do
              if Graph.happens_before g b c && not (Graph.happens_before g a c) then ok := false
            done
        done
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "direct edge" `Quick test_direct_edge;
    Alcotest.test_case "transitivity" `Quick test_transitivity;
    Alcotest.test_case "diamond" `Quick test_diamond;
    Alcotest.test_case "late edge propagation" `Quick test_late_edge_propagation;
    Alcotest.test_case "bad edges rejected" `Quick test_self_and_backward_edges_rejected;
    Alcotest.test_case "duplicate edges" `Quick test_duplicate_edges_ignored;
    Alcotest.test_case "op info" `Quick test_info;
    QCheck_alcotest.to_alcotest prop_closure_matches_dfs;
    QCheck_alcotest.to_alcotest prop_chc_symmetric;
    QCheck_alcotest.to_alcotest prop_hb_transitive;
  ]

let test_to_dot () =
  let g = mk () in
  let a = op g "alpha" and b = op g "beta" in
  Graph.add_edge g a b;
  let dot = Graph.to_dot ~highlight:[ b ] g in
  let has needle =
    let n = String.length needle and h = String.length dot in
    let rec go i = i + n <= h && (String.sub dot i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph" true (has "digraph happens_before");
  Alcotest.(check bool) "node labels" true (has "alpha" && has "beta");
  Alcotest.(check bool) "edge" true (has (Printf.sprintf "n%d -> n%d;" a b));
  Alcotest.(check bool) "highlight" true (has "color=red");
  (* Labels with quotes must be escaped. *)
  let g2 = mk () in
  ignore (Graph.fresh g2 Op.Parse ~label:{|parse <div id="x">|});
  Alcotest.(check bool) "escaped quotes" true
    (let d = Graph.to_dot g2 in
     let rec go i =
       i + 2 <= String.length d && (String.sub d i 2 = {|\"|} || go (i + 1))
     in
     go 0)

let suite = suite @ [ Alcotest.test_case "to_dot rendering" `Quick test_to_dot ]
