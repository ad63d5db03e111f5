(* The inputs of each workload, all derived from the workload seed.

   A page carries the oracle its verdict is checked against: planted
   ground truth for sitegen sites, static soundness only for the
   adversarial pack, and the counts a generated large page implies. *)

type expect =
  | Planted of Wr_sitegen.Profile.t
  | Standalone
  | Shape of { ops : int; races : int }

type page = {
  name : string;
  html : string;
  resources : (string * string) list;
  seed : int;
  expect : expect;
}

(* How the serve leg draws its requests: the [k]-th request asks for
   hot page [k mod n] at its hot seed (a cache hit once primed); every
   [miss_every]-th request re-asks it under a fresh seed, a cache miss
   that runs on the worker and is then stored. The hot sets are many
   pages of graded cost, 19 on the corpus and 11 on large pages, so that
   request latencies spread evenly rather than in a few far-apart
   clusters, where a percentile would flip from one cluster to the next
   between runs. The miss share, 1 in 5, is a choice made without
   traffic data: enough misses that the cache is written as well as
   read, few enough that hits carry most of the load; it is prime to
   both hot-set sizes, so every hot page is also missed.

   The nominal rate is fixed at the reference speed (see [Calib]) and
   scaled by the host's measured speed, so the offered load does not
   follow the program: a change that makes misses slower shows as
   higher latency at the same rate rather than as a lower rate. 12
   requests per second is about 6% of the capacity estimated from the
   daemon's in-process costs on either workload (see [Serve_leg.plan];
   each run prints its estimate): low enough that latency is mostly
   service time, not queueing. It is a choice made without traffic
   data. *)
type t = {
  pages : page list;
  hot : (page * int) array;
  miss_every : int;
  serve_rate : float;  (** the nominal rate, requests per second at the reference speed *)
}

let corpus_seed_base seed = 1_000 + (seed mod 100_000) * 1_000

(* The corpus: the 100 sitegen profiles, then the 5-page adversarial
   pack, with position-fixed exploration seeds offset by the workload
   seed. *)
let corpus_pages seed =
  let base = corpus_seed_base seed in
  let sites =
    List.mapi
      (fun i p ->
        let s = Wr_sitegen.Gen.generate p in
        {
          name = p.Wr_sitegen.Profile.name;
          html = s.Wr_sitegen.Gen.page;
          resources = s.Wr_sitegen.Gen.resources;
          seed = base + i;
          expect = Planted p;
        })
      (Wr_sitegen.Profile.corpus ())
  in
  let pack =
    List.mapi
      (fun i (sc : Wr_sitegen.Adversarial.scenario) ->
        {
          name = "adversarial/" ^ sc.name;
          html = sc.page;
          resources = sc.resources;
          seed = base + 100 + i;
          expect = Standalone;
        })
      (Wr_sitegen.Adversarial.pack ())
  in
  sites @ pack

(* Words for element text and class names; which ones a page uses
   depends on the seed, its structure does not. *)
let words = [| "item"; "entry"; "row"; "cell"; "card"; "tile"; "node"; "slot" |]

(* Many sibling elements plus a polling timer (the Perf-1 stress page).
   Each element is one parse operation; the script, its 21 timer ticks
   and the load events add a fixed 26. *)
let wide_page rng n =
  let buf = Buffer.create (n * 40) in
  let prefix = words.(Wr_support.Rng.int rng (Array.length words)) in
  for i = 0 to n - 1 do
    let w = words.(Wr_support.Rng.int rng (Array.length words)) in
    Printf.bprintf buf "<div id=\"%s%d\" class=\"%s\">%s %d</div>" prefix i w w i
  done;
  Printf.bprintf buf
    "<script>var count = 0; var t = setInterval(function () { count++; if \
     (count > 20) { clearInterval(t); } }, %d);</script>"
    (3 + Wr_support.Rng.int rng 5);
  (Buffer.contents buf, n + 26)

(* [n] nested divs around one text node: one operation per element plus
   a fixed 3. *)
let deep_page rng n =
  let buf = Buffer.create (n * 30) in
  for _ = 1 to n do
    let w = words.(Wr_support.Rng.int rng (Array.length words)) in
    Printf.bprintf buf "<div class=\"%s\">" w
  done;
  Buffer.add_string buf words.(Wr_support.Rng.int rng (Array.length words));
  for _ = 1 to n do
    Buffer.add_string buf "</div>"
  done;
  (Buffer.contents buf, n + 3)

let large_page ?(prefix = "") rng (shape, n) =
  let gen = if shape = "wide" then wide_page else deep_page in
  let html, ops = gen rng n in
  {
    name = Printf.sprintf "%s%s-%d" prefix shape n;
    html;
    resources = [];
    seed = 1 + Wr_support.Rng.int rng 1_000_000;
    expect = Shape { ops; races = 0 };
  }

let large_pages rng =
  List.map (large_page rng)
    [ ("wide", 1_000); ("wide", 2_000); ("deep", 500); ("deep", 1_000); ("deep", 2_000) ]

(* The large-pages serve set: eleven more pages from 500 to 2000
   elements, a fifth of a doubling apart, deep and wide in turn. *)
let large_serve rng =
  List.init 11 (fun j ->
      let n = int_of_float (Float.round (500. *. (2. ** (float_of_int j /. 5.)))) in
      large_page ~prefix:"serve/" rng ((if j mod 2 = 0 then "deep" else "wide"), n))

(* The corpus's serve hot set: nineteen sites spread over the profile
   list (every fifth from the third), each at the seed it has for
   workload seed 0. Fixed sites and seeds keep response sizes, and so
   the cost of a hit, the same from run to run; the workload seed picks
   the fresh seeds of the misses. *)
let corpus_hot pages =
  let by_index = Array.of_list pages in
  Array.init 19 (fun j ->
      let i = (5 * j) + 2 in
      (by_index.(i), corpus_seed_base 0 + i))

let miss_every = 5

let build ~workload ~seed =
  match workload with
  | "corpus" ->
      let pages = corpus_pages seed in
      { pages; hot = corpus_hot pages; miss_every; serve_rate = 12. }
  | "large-pages" ->
      let rng = Wr_support.Rng.of_int seed in
      let pages = large_pages rng in
      let serve = large_serve rng in
      { pages; hot = Array.of_list (List.map (fun p -> (p, p.seed)) serve); miss_every; serve_rate = 12. }
  | w -> invalid_arg ("unknown workload " ^ w)

(* The seed of the [k]-th fresh-seed request, derived from the workload
   seed; above every page seed while the workload seed stays below
   9000. *)
let miss_seed ~seed k = 10_000_000 + ((seed mod 1_000) * 100_000) + k
