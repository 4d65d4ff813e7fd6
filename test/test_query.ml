(* Client queries over a captured solution.  Every answer decodes the
   forward fixpoint's rows, so each query surface must equal the
   forward projection of an [Analysis] of the same app: points-to at
   every location, views-of-listener against the inverse of the
   registration table, activities-of-id against views_with_id x
   views_of_activity.  The battery covers corpus, qcheck random,
   cycle-heavy and incrementally patched apps, the last checked
   against a cold solve. *)
open Gator

let pp_values = Fmt.Dump.list Node.pp_value

let pp_views = Fmt.Dump.list Node.pp_view

(* Every query surface of a fresh handle over [solved] against forward
   projections of [r] (which may be a differently produced analysis of
   the same app — e.g. a cold solve vs a warm-captured state). *)
let check_queries name (r : Analysis.t) solved =
  let q = Query.create ~hierarchy:r.Analysis.app.Framework.App.hierarchy solved in
  let it = Solve.solved_interner solved in
  List.iter
    (fun node ->
      let expected = Analysis.values_at r node in
      match Query.points_to q node with
      | None -> Alcotest.failf "%s: %a unknown to the query handle" name Node.pp node
      | Some got ->
          if List.compare Node.compare_value expected got <> 0 then
            Alcotest.failf "%s: points-to differs at %a:@.  forward  %a@.  decoder  %a" name
              Node.pp node pp_values expected pp_values got)
    (Graph.locations r.Analysis.graph);
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
        Alcotest.failf "%s: views-of-listener differs at %a:@.  forward  %a@.  decoder  %a" name
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
        Alcotest.failf "%s: activities-of-id %S differs:@.  forward  %a@.  decoder  %a" name
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
  QCheck.Test.make ~count:8 ~name:"random app: decoder = forward"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Util.Prng.create seed in
      let spec = Corpus.Gen.random_spec ~name:(Printf.sprintf "QQuery_%d" seed) rng in
      ignore (check_app spec.Corpus.Spec.sp_name (Corpus.Gen.generate spec));
      true)

(* Cycle-heavy apps: most nodes share an SCC representative's row, so
   the decoder's node -> representative step is exercised heavily. *)
let test_cyclic () =
  let app =
    Corpus.Gen.cyclic_app ~name:"QCycle" ~chains:3 ~chain_len:9 ~two_cycles:2 ~bridges:4 ~seed:23
      ()
  in
  ignore (check_app "QCycle" app)

let test_qcheck_cyclic =
  QCheck.Test.make ~count:8 ~name:"random cyclic app: decoder = forward"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Util.Prng.create seed in
      let app = Corpus.Gen.random_cyclic_app ~name:(Printf.sprintf "QCyc_%d" seed) rng in
      ignore (check_app (Printf.sprintf "QCyc_%d" seed) app);
      true)

(* Incrementally patched apps: the decoders must be exact over a
   WARM-captured state (whose rows alias the previous solve's),
   checked against a cold from-scratch forward solve of the patched
   app, and the warm analysis must equal the cold one bit for bit.
   Each patch touches one statement or one id, so its warm solve must
   also stay local: it re-solves fewer components than the
   condensation has and reuses the rest. *)
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
         let stats = warm_r.Analysis.stats in
         Alcotest.(check bool) (name ^ " solved warm") true stats.Solve.warm_solve;
         Alcotest.(check bool)
           (name ^ " dirty < sccs") true
           (stats.Solve.dirty_comps < stats.Solve.scc_count);
         Alcotest.(check bool) (name ^ " reuses components") true (stats.Solve.reused_comps > 0);
         (* forward reference: a cold solve of the same patched app *)
         let cold = Analysis.analyze patched in
         let d = Diff.compare cold warm_r in
         if not (Diff.is_empty d) then Alcotest.failf "%s: warm differs from cold: %a" name Diff.pp d;
         check_queries name cold warm_solved;
         warm_solved)
       solved0 patches)

(* The decoders use only non-minting lookups: answering points-to at
   every location of a solved XBMC, and at a node the app never
   interned, leaves the solved state's value, rid and node pools
   exactly as the solve left them. *)
let test_queries_never_mint () =
  let app = Corpus.Apps.generate (Option.get (Corpus.Apps.by_name "XBMC")) in
  let r, solved = Incremental.analyze_solved app in
  let it = Solve.solved_interner solved in
  let counts () = (Intern.value_count it, Intern.rid_count it, Intern.node_count it) in
  let minted = counts () in
  let q = Query.create ~hierarchy:app.Framework.App.hierarchy solved in
  List.iter (fun node -> ignore (Query.points_to q node)) (Graph.locations r.Analysis.graph);
  Alcotest.(check bool) "unknown node is None" true
    (Query.points_to q (Node.N_field "no_such_field_zzz") = None);
  Alcotest.(check (triple int int int)) "queries mint nothing" minted (counts ())

let suite =
  [
    Alcotest.test_case "ConnectBot: decoder = forward" `Quick test_connectbot;
    Alcotest.test_case "cyclic app: decoder = forward" `Quick test_cyclic;
    Alcotest.test_case "patched apps: warm state queries = cold forward" `Quick test_patched;
    Alcotest.test_case "XBMC points-to mints nothing" `Quick test_queries_never_mint;
    QCheck_alcotest.to_alcotest test_qcheck_random;
    QCheck_alcotest.to_alcotest test_qcheck_cyclic;
    Alcotest.test_case "corpus: decoder = forward (all apps)" `Slow test_corpus;
  ]
