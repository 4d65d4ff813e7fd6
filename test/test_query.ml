(* The demand-driven query engine.  The backward walk must be
   bit-identical to the forward fixpoint's projections — at EVERY fuel
   budget, since each fallback (generator, cycle, budget) substitutes
   the cached forward solution, which is exact.  The battery mirrors
   the engine differential in [test_intern.ml]: corpus apps,
   qcheck random apps, cycle-heavy apps, incrementally patched apps,
   sequentially and under the worker pool at jobs 1 and 4. *)
open Gator

(* Budgets to sweep: 0 forces pure cached reads, 1 and 7 truncate
   mid-walk, the default runs the walk to completion. *)
let budgets = [ 0; 1; 7; Query.default_budget ]

let pp_values = Fmt.Dump.list Node.pp_value

let pp_views = Fmt.Dump.list Node.pp_view

(* Every query surface of a fresh handle over [solved] against forward
   projections of [r] (which may be a differently produced analysis of
   the same app — e.g. a cold solve vs a warm-captured state). *)
let check_queries name (r : Analysis.t) solved =
  let hierarchy = r.Analysis.app.Framework.App.hierarchy in
  let locations = Graph.locations r.Analysis.graph in
  (* points-to at every location, at every budget, fresh handle each
     so the memo can't mask budget behaviour *)
  List.iter
    (fun budget ->
      let q = Query.create ~hierarchy solved in
      List.iter
        (fun node ->
          let expected = Analysis.values_at r node in
          match Query.points_to ~budget q node with
          | None -> Alcotest.failf "%s[b=%d]: %a unknown to the query engine" name budget Node.pp node
          | Some got ->
              if List.compare Node.compare_value expected got <> 0 then
                Alcotest.failf "%s[b=%d]: backward differs at %a:@.  forward  %a@.  backward %a"
                  name budget Node.pp node pp_values expected pp_values got)
        locations)
    budgets;
  let q = Query.create ~hierarchy solved in
  let it = Query.interner q in
  (* views-of-listener vs the inverse of the forward registration table *)
  let module LM = Map.Make (struct
    type t = Node.listener_abs

    let compare = Node.compare_listener
  end) in
  let registered = ref LM.empty in
  for wid = 0 to Intern.view_count it - 1 do
    let w = Intern.view_of it wid in
    List.iter
      (fun (l, _iface) ->
        registered :=
          LM.update l (function None -> Some [ w ] | Some ws -> Some (w :: ws)) !registered)
      (Analysis.listeners_of_view r w)
  done;
  LM.iter
    (fun l ws ->
      let expected = List.sort Node.compare_view ws in
      let got = Query.views_of_listener q l in
      if List.compare Node.compare_view expected got <> 0 then
        Alcotest.failf "%s: views-of-listener differs at %a:@.  forward  %a@.  backward %a" name
          Node.pp_listener l pp_views expected pp_views got)
    !registered;
  Alcotest.(check (list reject))
    (name ^ ": unregistered listener answers empty")
    []
    (Query.views_of_listener q (Node.L_act "NoSuchListener_zzz"));
  (* activities-of-id vs forward views_with_id x views_of_activity *)
  let id_names =
    List.sort_uniq String.compare
      (List.filter_map
         (fun wid ->
           match Intern.view_of it wid with
           | Node.V_infl { Node.v_vid = Some n; _ } -> Some n
           | _ -> None)
         (List.init (Intern.view_count it) Fun.id))
  in
  List.iter
    (fun id_name ->
      let with_id = Analysis.views_with_id r id_name in
      let mem v vs = List.exists (fun v' -> Node.compare_view v v' = 0) vs in
      let expected =
        List.sort_uniq String.compare
          (List.filter_map
             (fun (cls : Jir.Ast.cls) ->
               let shown = Analysis.views_of_activity r cls.Jir.Ast.c_name in
               if List.exists (fun v -> mem v shown) with_id then Some cls.Jir.Ast.c_name
               else None)
             (Framework.App.activity_classes r.Analysis.app))
      in
      let got = Query.activities_of_id q id_name in
      if expected <> got then
        Alcotest.failf "%s: activities-of-id %S differs:@.  forward  %a@.  backward %a" name
          id_name
          Fmt.(Dump.list string)
          expected
          Fmt.(Dump.list string)
          got)
    ("no_such_id_zzz" :: id_names)

(* Full solve that captures state, checked against its own projections. *)
let check_app name app =
  let r, solved = Incremental.analyze_solved app in
  check_queries name r solved;
  (r, solved)

(* ------------------------------------------------------------------ *)

let test_connectbot () = ignore (check_app "ConnectBot" (Corpus.Connectbot.app ()))

let test_corpus () =
  List.iter
    (fun (spec : Corpus.Spec.t) ->
      ignore (check_app spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec)))
    Corpus.Apps.specs

let test_qcheck_random =
  QCheck.Test.make ~count:8 ~name:"random app: backward = forward at every budget"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Util.Prng.create seed in
      let spec = Corpus.Gen.random_spec ~name:(Printf.sprintf "QQuery_%d" seed) rng in
      ignore (check_app spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec));
      true)

(* Cycle-heavy apps: the condensed graph can still close cycles
   through cast edges, exercising the backward walk's cycle fallback. *)
let test_cyclic () =
  let app =
    Corpus.Gen.cyclic_app ~name:"QCycle" ~chains:3 ~chain_len:9 ~two_cycles:2 ~bridges:4 ~seed:23
      ()
  in
  ignore (check_app "QCycle" app)

let test_qcheck_cyclic =
  QCheck.Test.make ~count:8 ~name:"cyclic app: backward = forward at every budget"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Util.Prng.create seed in
      let app = Corpus.Gen.random_cyclic_app ~name:(Printf.sprintf "QCyc_%d" seed) rng in
      ignore (check_app (Printf.sprintf "QCyc_%d" seed) app);
      true)

(* Incrementally patched apps: the query engine must be exact over a
   WARM-captured state (whose sd_targets carry transitively), checked
   against a cold from-scratch forward solve of the patched app. *)
let test_patched () =
  let base = Corpus.Gen.generate (Option.get (Corpus.Apps.by_name "XBMC")) in
  let _, solved0 = Incremental.analyze_solved base in
  let patches =
    [
      ( "XBMC+stmt",
        [
          Corpus.Patch.Add_stmt
            {
              cls = "Activity_0";
              meth = "onCreate";
              arity = 0;
              stmt = Jir.Ast.New ("q_tmp", "android.widget.Button");
            };
        ] );
      ("XBMC+rename", [ Corpus.Patch.Rename_view_id { from_ = "view_0_0"; to_ = "view_0_1" } ]);
    ]
  in
  ignore
    (List.fold_left
       (fun prev (name, patch) ->
         let patched =
           match Corpus.Patch.apply base patch with
           | Ok app -> app
           | Error e -> Alcotest.failf "%s: patch failed: %s" name e
         in
         let warm_r, warm_solved = Incremental.analyze_incremental ~prev patched in
         Alcotest.(check bool) (name ^ " solved warm") true warm_r.Analysis.stats.Solve.warm_solve;
         (* forward reference: a cold solve of the same patched app *)
         let cold = Analysis.analyze patched in
         check_queries name cold warm_solved;
         warm_solved)
       solved0 patches)

(* Under the worker pool: apps built and queried inside their tasks,
   answers independent of domain scheduling. *)
let test_jobs () =
  let seeds = [ 11; 12; 13; 14 ] in
  List.iter
    (fun jobs ->
      let tasks =
        List.map
          (fun seed () ->
            let rng = Util.Prng.create seed in
            let name = Printf.sprintf "QJobs_%d" seed in
            let spec = Corpus.Gen.random_spec ~name rng in
            ignore (check_app name (Corpus.Gen.generate spec)))
          seeds
      in
      List.iter Pool.value_exn (Pool.run ~jobs tasks))
    [ 1; 4 ]

(* The counters must prove the demand-driven claim: a default-budget
   walk expands representatives backward and never falls back on
   budget; a zero-budget walk reads only cached solutions. *)
let test_stats_counters () =
  let app = Corpus.Gen.generate (Option.get (Corpus.Apps.by_name "XBMC")) in
  let r, solved = Incremental.analyze_solved app in
  let hierarchy = app.Framework.App.hierarchy in
  let q = Query.create ~hierarchy solved in
  List.iter (fun node -> ignore (Query.points_to q node)) (Graph.locations r.Analysis.graph);
  let s = Query.stats q in
  Alcotest.(check bool) "queries counted" true (s.Query.q_queries > 0);
  Alcotest.(check bool) "backward expansions happened" true (s.Query.q_expanded > 0);
  Alcotest.(check int) "no budget fallback at default budget" 0 s.Query.q_budget_fallbacks;
  let q0 = Query.create ~hierarchy solved in
  List.iter
    (fun node -> ignore (Query.points_to ~budget:0 q0 node))
    (Graph.locations r.Analysis.graph);
  let s0 = Query.stats q0 in
  Alcotest.(check int) "budget 0 never expands" 0 s0.Query.q_expanded;
  Alcotest.(check bool) "budget 0 falls back" true (s0.Query.q_budget_fallbacks > 0);
  (* unknown nodes answer None without minting interner ids *)
  let before = Intern.node_count (Query.interner q) in
  Alcotest.(check bool) "unknown node is None" true
    (Query.points_to q (Node.N_field "no_such_field_zzz") = None);
  Alcotest.(check int) "unknown node minted nothing" before (Intern.node_count (Query.interner q))

(* Counter semantics on a SHARED engine: monotone accumulation since
   [create], never reset between queries.  A budget-starved query
   leaves its fallback count behind — later default-budget queries on
   the same handle add to the totals rather than clearing them (the
   daemon relies on exactly this: its stats reply carries counters
   across queries, and across patches by snapshotting; see
   [test_server.ml]). *)
let test_stats_accumulate_on_shared_engine () =
  let app = Corpus.Gen.generate (Option.get (Corpus.Apps.by_name "XBMC")) in
  let r, solved = Incremental.analyze_solved app in
  let q = Query.create ~hierarchy:app.Framework.App.hierarchy solved in
  let locations = Graph.locations r.Analysis.graph in
  let snap () =
    let s = Query.stats q in
    (s.Query.q_queries, s.Query.q_expanded, s.Query.q_budget_fallbacks, s.Query.q_memo_hits)
  in
  (* round 1: budget-starved queries must record their fallbacks *)
  List.iter (fun node -> ignore (Query.points_to ~budget:0 q node)) locations;
  let q1, e1, b1, _ = snap () in
  Alcotest.(check int) "round 1 queries" (List.length locations) q1;
  Alcotest.(check int) "round 1 never expands" 0 e1;
  Alcotest.(check bool) "round 1 budget fallbacks recorded" true (b1 > 0);
  (* round 2, same handle at default budget: counters accumulate on
     top of round 1 — queries double, fallback count stays (memoized
     fallback rows answer from the memo, adding hits, not fallbacks) *)
  List.iter (fun node -> ignore (Query.points_to q node)) locations;
  let q2, e2, b2, m2 = snap () in
  Alcotest.(check int) "queries accumulate" (2 * List.length locations) q2;
  Alcotest.(check int) "fallbacks never reset" b1 b2;
  Alcotest.(check bool) "memo hits grew" true (m2 > 0);
  Alcotest.(check bool) "still no spontaneous reset" true (e2 >= e1)

(* The query engine uses only non-minting lookups: answering
   points-to at every location of a solved XBMC leaves the solved
   state's value, rid and node pools exactly as the solve left them. *)
let test_queries_never_mint () =
  let app = Corpus.Apps.generate (Option.get (Corpus.Apps.by_name "XBMC")) in
  let r, solved = Incremental.analyze_solved app in
  let it = Solve.solved_interner solved in
  let counts () = (Intern.value_count it, Intern.rid_count it, Intern.node_count it) in
  let minted = counts () in
  let q = Query.create ~hierarchy:app.Framework.App.hierarchy solved in
  List.iter (fun node -> ignore (Query.points_to q node)) (Graph.locations r.Analysis.graph);
  Alcotest.(check (triple int int int)) "queries mint nothing" minted (counts ())

let suite =
  [
    Alcotest.test_case "ConnectBot: backward = forward at every budget" `Quick test_connectbot;
    Alcotest.test_case "cyclic app: backward = forward" `Quick test_cyclic;
    Alcotest.test_case "patched apps: warm state queries = cold forward" `Quick test_patched;
    Alcotest.test_case "query stats counters" `Quick test_stats_counters;
    Alcotest.test_case "XBMC points-to mints nothing" `Quick test_queries_never_mint;
    Alcotest.test_case "stats accumulate on a shared engine" `Quick
      test_stats_accumulate_on_shared_engine;
    QCheck_alcotest.to_alcotest test_qcheck_random;
    QCheck_alcotest.to_alcotest test_qcheck_cyclic;
    Alcotest.test_case "corpus: backward = forward (all apps)" `Slow test_corpus;
    Alcotest.test_case "random apps under pool (jobs 1/4)" `Slow test_jobs;
  ]
