(* Naive/interned solver equivalence: the semi-naive interned engine
   must produce bit-identical solutions — points-to sets and their
   taint planes, hierarchies (both directions), id/listener/onclick
   relations, holder roots, and transitions — on
   every app we can generate.  The naive loop is the executable
   specification; the interned solver is the optimization under test.
   [check_same_solution] is the shared comparator of every engine
   differential in the suite. *)
open Gator

let naive config = { config with Config.solver = Config.Naive }

let interned config = { config with Config.solver = Config.Interned }

(* Every abstract view mentioned by either solution: inflated views,
   views inside points-to sets, relation keys, and holder roots. *)
let all_views (r : Analysis.t) =
  let g = r.graph in
  let add acc view = Graph.View_set.add view acc in
  let acc = List.fold_left add Graph.View_set.empty (Graph.inflated_views g) in
  let acc =
    List.fold_left
      (fun acc node -> List.fold_left add acc (Graph.views_of g node))
      acc (Graph.locations g)
  in
  let acc = List.fold_left add acc (Graph.views_with_listeners g) in
  let acc = List.fold_left add acc (Graph.views_with_declared_fragments g) in
  List.fold_left
    (fun acc holder -> Graph.View_set.union acc (Graph.roots_of_holder g holder))
    acc (Graph.holders g)

let sorted_holders (r : Analysis.t) = List.sort Node.compare_holder (Graph.holders r.graph)

let check_same_solution name (a : Analysis.t) (b : Analysis.t) =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) name in
  (* points-to sets over the union of both graphs' locations *)
  let locations =
    List.sort_uniq Node.compare (Graph.locations a.graph @ Graph.locations b.graph)
  in
  List.iter
    (fun node ->
      let va = Graph.set_of a.graph node and vb = Graph.set_of b.graph node in
      if not (Graph.VS.equal va vb) then
        fail "points-to sets differ at %a (%d vs %d values)" Node.pp node (Graph.VS.cardinal va)
          (Graph.VS.cardinal vb);
      if not (Graph.VS.equal (Graph.taints_of a.graph node) (Graph.taints_of b.graph node)) then
        fail "taints differ at %a" Node.pp node)
    locations;
  (* view relations over the union of both solutions' views *)
  let views = Graph.View_set.union (all_views a) (all_views b) in
  Graph.View_set.iter
    (fun view ->
      if not (Graph.View_set.equal (Graph.children_of a.graph view) (Graph.children_of b.graph view))
      then fail "children differ at %a" Node.pp_view view;
      if not (Graph.View_set.equal (Graph.parents_of a.graph view) (Graph.parents_of b.graph view))
      then fail "parents differ at %a" Node.pp_view view;
      if not (Graph.Int_set.equal (Graph.ids_of_view a.graph view) (Graph.ids_of_view b.graph view))
      then fail "ids differ at %a" Node.pp_view view;
      if
        not
          (Graph.Listener_set.equal
             (Graph.listeners_of_view a.graph view)
             (Graph.listeners_of_view b.graph view))
      then fail "listeners differ at %a" Node.pp_view view;
      if Graph.onclicks_of a.graph view <> Graph.onclicks_of b.graph view then
        fail "onclick handlers differ at %a" Node.pp_view view;
      if Graph.declared_fragments_of a.graph view <> Graph.declared_fragments_of b.graph view then
        fail "declared fragments differ at %a" Node.pp_view view)
    views;
  (* holders and their roots *)
  let ha = sorted_holders a and hb = sorted_holders b in
  if not (List.equal (fun x y -> Node.compare_holder x y = 0) ha hb) then
    fail "holder populations differ (%d vs %d)" (List.length ha) (List.length hb);
  List.iter
    (fun holder ->
      if
        not
          (Graph.View_set.equal (Graph.roots_of_holder a.graph holder)
             (Graph.roots_of_holder b.graph holder))
      then fail "roots differ at %a" Node.pp_holder holder)
    ha;
  (* activity transitions *)
  let ta = List.sort compare (Graph.transitions a.graph) in
  let tb = List.sort compare (Graph.transitions b.graph) in
  if ta <> tb then fail "transitions differ (%d vs %d)" (List.length ta) (List.length tb)

let check_app ?(config = Config.default) name app =
  let rn = Analysis.analyze ~config:(naive config) app in
  let ri = Analysis.analyze ~config:(interned config) app in
  check_same_solution name rn ri;
  (rn, ri)

let test_connectbot () =
  let app = Corpus.Connectbot.app () in
  ignore (check_app "ConnectBot" app);
  (* equivalence must hold under every ablation, not just defaults *)
  ignore (check_app ~config:Config.baseline "ConnectBot(baseline)" app);
  ignore
    (check_app
       ~config:{ Config.default with listener_callbacks = false }
       "ConnectBot(no callbacks)" app);
  ignore (check_app ~config:{ Config.default with inline_depth = 1 } "ConnectBot(inline 1)" app)

let test_corpus_equivalence () =
  List.iter
    (fun spec ->
      let name = spec.Corpus.Spec.sp_name in
      ignore (check_app name (Corpus.Gen.generate spec)))
    Corpus.Apps.specs

let test_random_apps () =
  let rng = Util.Prng.create 2014 in
  for i = 1 to 5 do
    let spec = Corpus.Gen.random_spec ~name:(Printf.sprintf "EngineRandom_%d" i) rng in
    ignore (check_app spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec))
  done

(* The acceptance criterion behind the whole exercise: on the largest
   corpus app the interned solver applies strictly fewer op rules than
   the naive [rounds * |ops|] schedule, and its own round count bounds
   it. *)
let test_xbmc_work_counters () =
  let spec = Option.get (Corpus.Apps.by_name "XBMC") in
  let app = Corpus.Gen.generate spec in
  let rn, ri = check_app "XBMC" app in
  let ops = List.length (Graph.ops ri.graph) in
  Alcotest.check Alcotest.bool "naive applies rounds*|ops|" true
    (rn.stats.Solve.op_applications = rn.stats.Solve.iterations * ops);
  Alcotest.check Alcotest.bool "interned applies fewer ops than naive" true
    (ri.stats.Solve.op_applications < rn.stats.Solve.op_applications);
  Alcotest.check Alcotest.bool "interned beats its own rounds*|ops| bound" true
    (ri.stats.Solve.op_applications < ri.stats.Solve.iterations * ops)

let test_interned_is_default () =
  Alcotest.check Alcotest.string "default solver" "interned"
    (Config.solver_name Config.default.Config.solver)

let suite =
  [
    Alcotest.test_case "interned solver is the default" `Quick test_interned_is_default;
    Alcotest.test_case "ConnectBot equivalence (all configs)" `Quick test_connectbot;
    Alcotest.test_case "XBMC work counters" `Quick test_xbmc_work_counters;
    Alcotest.test_case "random apps equivalence" `Quick test_random_apps;
    Alcotest.test_case "full corpus equivalence" `Slow test_corpus_equivalence;
  ]
