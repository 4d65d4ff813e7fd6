(* Context sensitivity by inlining: the naive = interned differential.

   With [inline_depth > 0] extraction clones small, uniquely resolved
   callees once per call site, renaming their locals with
   [Node.clone_var].  Both engines solve that same inlined graph; the
   interned engine additionally substitutes single-definition clone
   chains away before condensing.  The oracle is exact equivalence with
   the naive engine (the executable spec): for every app and every
   depth, points-to sets, view relations, holder roots, transitions,
   and the op-level Diff agree.  The batteries cover the fixed corpus,
   random spec-driven apps, cycle-heavy apps, and the alias-heavy
   family built specifically to make context sensitivity change
   answers. *)
open Gator

let cs solver depth = { Config.default with Config.solver; inline_depth = depth }

(* The shared engine comparator, then the op-level Diff. *)
let check_same_solution name (a : Analysis.t) (b : Analysis.t) =
  Test_engines.check_same_solution name a b;
  let d = Diff.compare a b in
  if not (Diff.is_empty d) then Alcotest.failf "%s: op-level diff non-empty:@.%a" name Diff.pp d

(* The differential proper: both engines at each depth. *)
let two_way ?(depths = [ 1; 2 ]) name app =
  List.iter
    (fun depth ->
      let tag = Printf.sprintf "%s@cs%d" name depth in
      let naive = Analysis.analyze ~config:(cs Config.Naive depth) app in
      let interned = Analysis.analyze ~config:(cs Config.Interned depth) app in
      check_same_solution (tag ^ " interned vs naive") interned naive)
    depths

let test_connectbot () = two_way "ConnectBot" (Corpus.Connectbot.app ())

let test_corpus () =
  List.iter
    (fun spec -> two_way spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec))
    Corpus.Apps.specs

let test_random_apps () =
  let rng = Util.Prng.create 4102 in
  for i = 1 to 5 do
    let spec = Corpus.Gen.random_spec ~name:(Printf.sprintf "CtxRandom_%d" i) rng in
    two_way spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec)
  done

let test_cycle_heavy () =
  let rng = Util.Prng.create 977 in
  for i = 1 to 4 do
    two_way (Printf.sprintf "CtxCyclic_%d" i)
      (Corpus.Gen.random_cyclic_app ~name:(Printf.sprintf "CtxCyclic_%d" i) rng)
  done

let test_alias_heavy () =
  two_way "AliasFixed" (Corpus.Gen.alias_heavy_app ~groups:4 ~sites_per_group:5 ~seed:11 ());
  let rng = Util.Prng.create 5311 in
  for i = 1 to 4 do
    two_way (Printf.sprintf "CtxAlias_%d" i)
      (Corpus.Gen.random_alias_heavy_app ~name:(Printf.sprintf "CtxAlias_%d" i) rng)
  done

let qcheck_random_differential =
  QCheck.Test.make ~count:20 ~name:"qcheck: random apps naive = interned"
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Util.Prng.create seed in
      let app =
        if seed mod 3 = 0 then Corpus.Gen.random_cyclic_app rng
        else if seed mod 3 = 1 then Corpus.Gen.random_alias_heavy_app rng
        else Corpus.Gen.generate (Corpus.Gen.random_spec rng)
      in
      two_way "qcheck" app;
      true)

(* The precision story the family exists for: context sensitivity
   shrinks the alias-heavy setId receiver sets from the whole group to
   one view per site — and both engines report the same shrink. *)
let test_alias_precision () =
  let sites = 5 in
  let app = Corpus.Gen.alias_heavy_app ~groups:4 ~sites_per_group:sites ~seed:3 () in
  let avg_recv (r : Analysis.t) =
    let ops = Analysis.ops_of_kind r (fun k -> k = Framework.Api.Set_id) in
    let sized =
      List.filter_map
        (fun op ->
          match List.length (Analysis.op_receiver_views r op) with 0 -> None | n -> Some n)
        ops
    in
    float_of_int (List.fold_left ( + ) 0 sized) /. float_of_int (max 1 (List.length sized))
  in
  let base = avg_recv (Analysis.analyze ~config:Config.default app) in
  let cs2 = avg_recv (Analysis.analyze ~config:(cs Config.Interned 2) app) in
  let cs2_naive = avg_recv (Analysis.analyze ~config:(cs Config.Naive 2) app) in
  Alcotest.check (Alcotest.float 1e-9) "both engines report the same averages" cs2_naive cs2;
  Alcotest.check Alcotest.bool
    (Printf.sprintf "baseline merges the group (%.2f >= %d)" base sites)
    true
    (base >= float_of_int sites);
  Alcotest.check (Alcotest.float 1e-9) "cs-2 separates every site" 1.0 cs2

(* The graph the engines solve is the graph the inspection surface
   shows: the same locations, edge count and Graphviz lines under
   either engine, clones included. *)
let test_graph_shown () =
  let dot_lines (r : Analysis.t) =
    List.sort_uniq String.compare (String.split_on_char '\n' (Fmt.str "%a" Graph.pp_dot r.graph))
  in
  List.iter
    (fun (name, app) ->
      let naive = Analysis.analyze ~config:(cs Config.Naive 2) app in
      let interned = Analysis.analyze ~config:(cs Config.Interned 2) app in
      let locations (r : Analysis.t) = List.sort_uniq Node.compare (Graph.locations r.graph) in
      Alcotest.check Alcotest.int (name ^ " locations")
        (List.length (locations naive))
        (List.length (locations interned));
      Alcotest.check Alcotest.bool (name ^ " same locations") true
        (List.equal Node.equal (locations naive) (locations interned));
      Alcotest.check Alcotest.int (name ^ " edge count") (Graph.edge_count naive.graph)
        (Graph.edge_count interned.graph);
      Alcotest.check Alcotest.bool (name ^ " same dot lines") true
        (List.equal String.equal (dot_lines naive) (dot_lines interned)))
    [
      ("XBMC", Corpus.Gen.generate (Option.get (Corpus.Apps.by_name "XBMC")));
      ("AliasFixed", Corpus.Gen.alias_heavy_app ~groups:4 ~sites_per_group:5 ~seed:11 ());
    ]

let suite =
  [
    Alcotest.test_case "ConnectBot naive = interned" `Quick test_connectbot;
    Alcotest.test_case "random apps naive = interned" `Quick test_random_apps;
    Alcotest.test_case "cycle-heavy naive = interned" `Quick test_cycle_heavy;
    Alcotest.test_case "alias-heavy naive = interned" `Quick test_alias_heavy;
    Alcotest.test_case "alias-heavy precision delta" `Quick test_alias_precision;
    Alcotest.test_case "solved graph is the graph shown" `Quick test_graph_shown;
    Alcotest.test_case "full corpus naive = interned" `Slow test_corpus;
    QCheck_alcotest.to_alcotest qcheck_random_differential;
  ]
