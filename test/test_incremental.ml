(* Incremental re-analysis: the warm path must be BIT-IDENTICAL to a
   from-scratch solve of the patched app — same op solutions, same
   interactions, same transitions — across the patch vocabulary
   (add-handler, remove-view, rename-id, cycle-splitting edits), across
   warm chains, and across a snapshot round-trip.  Corrupted or stale
   state must degrade to a full solve surfaced in [stats.fallback],
   never a crash. *)
open Gator

(* The corpus app under patching: deterministic names (Inc_Activity,
   Inc_Listener, chain variables chN_I) that the JSON patch files in
   incremental/ target. *)
let inc_app () =
  Corpus.Gen.cyclic_app ~name:"Inc" ~chains:2 ~chain_len:6 ~two_cycles:1 ~bridges:2 ~seed:7 ()

let find_method (app : Framework.App.t) ~cls ~name ~arity =
  List.find_opt (fun (c : Jir.Ast.cls) -> c.c_name = cls) app.program.p_classes
  |> Option.map (fun (c : Jir.Ast.cls) ->
         List.find_opt
           (fun (m : Jir.Ast.meth) -> m.m_name = name && List.length m.m_params = arity)
           c.c_methods)
  |> Option.join

let apply_patch app patch =
  match Corpus.Patch.apply app patch with
  | Ok app' -> app'
  | Error e -> Alcotest.failf "patch failed to apply: %s" e

(* `dune runtest` runs in test/, `dune exec test/main.exe` in the
   project root — accept either. *)
let fixture_path file =
  let candidates = [ Filename.concat "incremental" file; Filename.concat "test/incremental" file ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "fixture %s not found" file

let load_patch file =
  match Corpus.Patch.load (fixture_path file) with
  | Ok p -> p
  | Error e -> Alcotest.failf "patch %s failed to parse: %s" file e

(* Bit-identity: op-solution diff plus order-insensitive interaction
   and transition comparison. *)
let check_same_solution ~msg (cold : Analysis.t) (warm : Analysis.t) =
  let d = Diff.compare cold warm in
  if not (Diff.is_empty d) then Alcotest.failf "%s: %a" msg Diff.pp d;
  let ix r =
    List.sort compare (List.map (Fmt.str "%a" Analysis.pp_interaction) (Analysis.interactions r))
  in
  Alcotest.check (Alcotest.list Alcotest.string) (msg ^ ": interactions") (ix cold) (ix warm);
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    (msg ^ ": transitions")
    (List.sort compare (Analysis.transitions cold))
    (List.sort compare (Analysis.transitions warm))

let check_warm ~msg (r : Analysis.t) =
  Alcotest.check Alcotest.bool (msg ^ ": warm_solve") true r.stats.Solve.warm_solve;
  Alcotest.check Alcotest.bool (msg ^ ": no fallback") true (r.stats.Solve.fallback = None)

(* Warm-solve [patch] applied to [app] against the captured [prev];
   check bit-identity against a cold analysis of the patched app. *)
let run_patch ~msg ?config app prev patch =
  let app' = apply_patch app patch in
  let warm, solved' = Incremental.analyze_incremental ?config ~prev app' in
  check_warm ~msg warm;
  check_same_solution ~msg (Analysis.analyze ?config app') warm;
  (warm, solved')

(* ------------------------------------------------------------------ *)
(* Warm solves *)

let test_warm_identity () =
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved app in
  let warm, _ = Incremental.analyze_incremental ~prev:solved app in
  check_warm ~msg:"identity" warm;
  Alcotest.check Alcotest.int "no dirty components" 0 warm.stats.Solve.dirty_comps;
  Alcotest.check Alcotest.bool "components reused" true (warm.stats.Solve.reused_comps > 0);
  check_same_solution ~msg:"identity" (Analysis.analyze app) warm

let test_patch_add_handler () =
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved app in
  ignore (run_patch ~msg:"add-handler" app solved (load_patch "add_handler.json"))

let test_patch_rename_id () =
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved app in
  let warm, _ = run_patch ~msg:"rename-id" app solved (load_patch "rename_id.json") in
  (* a seed-only patch cannot dirty the whole condensation (locality
     on a large app is pinned by test_query.ml's XBMC+stmt case) *)
  Alcotest.check Alcotest.bool "some components stay clean" true
    (warm.stats.Solve.dirty_comps < warm.stats.Solve.scc_count
    && warm.stats.Solve.reused_comps > 0)

let test_patch_remove_view () =
  let app = inc_app () in
  (* guard the hard-coded statement index against generator drift *)
  (match find_method app ~cls:"Inc_Activity" ~name:"onCreate" ~arity:0 with
  | Some m ->
      Alcotest.check Alcotest.bool "index 23 is the Button allocation" true
        (List.nth_opt m.Jir.Ast.m_body 23 = Some (Jir.Ast.New ("w0", "Button")))
  | None -> Alcotest.fail "Inc_Activity.onCreate not found");
  let _, solved = Incremental.analyze_solved app in
  ignore (run_patch ~msg:"remove-view" app solved (load_patch "remove_view.json"))

let test_patch_cycle_split () =
  let app = inc_app () in
  (match find_method app ~cls:"Inc_Activity" ~name:"onCreate" ~arity:0 with
  | Some m ->
      Alcotest.check Alcotest.bool "index 17 closes ring 1" true
        (List.nth_opt m.Jir.Ast.m_body 17 = Some (Jir.Ast.Copy ("ch1_0", "ch1_5")))
  | None -> Alcotest.fail "Inc_Activity.onCreate not found");
  let _, solved = Incremental.analyze_solved app in
  ignore (run_patch ~msg:"cycle-split" app solved (load_patch "cycle_split.json"))

let test_patch_chain () =
  (* warm-of-warm: carried-forward write targets must keep later
     invalidation sound *)
  let app = inc_app () in
  let _, solved0 = Incremental.analyze_solved app in
  let app1 = apply_patch app (load_patch "rename_id.json") in
  let warm1, solved1 = Incremental.analyze_incremental ~prev:solved0 app1 in
  check_warm ~msg:"chain step 1" warm1;
  let app2 = apply_patch app1 (load_patch "cycle_split.json") in
  let warm2, _ = Incremental.analyze_incremental ~prev:solved1 app2 in
  check_warm ~msg:"chain step 2" warm2;
  check_same_solution ~msg:"chain" (Analysis.analyze app2) warm2

let test_config_change_falls_back () =
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved app in
  let config = { Config.default with cast_filtering = false } in
  let warm, _ = Incremental.analyze_incremental ~config ~prev:solved app in
  Alcotest.check Alcotest.bool "fell back" true (warm.stats.Solve.fallback <> None);
  Alcotest.check Alcotest.bool "not warm" false warm.stats.Solve.warm_solve;
  check_same_solution ~msg:"config fallback" (Analysis.analyze ~config app) warm

let test_methods_changed_not_fallback () =
  (* adding a method is NOT a fallback: resolve-dependent ops are
     re-run instead *)
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved app in
  let patch =
    [
      Corpus.Patch.Add_method
        { cls = "Inc_Listener"; name = "helper"; params = [ "x" ]; body = [ Jir.Ast.Return None ] };
    ]
  in
  ignore (run_patch ~msg:"add-method" app solved patch)

(* ------------------------------------------------------------------ *)
(* Edit-script audit: every relation kind shows up in the diff *)

let test_edit_script_kinds () =
  let app = inc_app () in
  let it = Solve.solved_interner (snd (Incremental.analyze_solved app)) in
  let shape_of app = Solve.shape_of_graph (Extract.run ~interner:it Config.default app) in
  let base = shape_of app in
  let empty = Diff.edit_script ~old_:base ~new_:(shape_of app) in
  Alcotest.check Alcotest.bool "identity script is empty" true (Diff.edit_script_is_empty empty);
  (* removing a cast statement must surface as a removed CAST edge *)
  let no_bridge =
    apply_patch app
      [ Corpus.Patch.Remove_stmt { cls = "Inc_Activity"; meth = "onCreate"; arity = 0; index = 21 } ]
  in
  let es = Diff.edit_script ~old_:base ~new_:(shape_of no_bridge) in
  Alcotest.check Alcotest.bool "cast edge removal detected" true
    (Array.exists (fun (_, k, _) -> k <> -1) es.Solve.es_removed_edges);
  (* renaming an id read must surface as seed edits, not edge edits *)
  let renamed = apply_patch app (load_patch "rename_id.json") in
  let es = Diff.edit_script ~old_:base ~new_:(shape_of renamed) in
  Alcotest.check Alcotest.bool "seed removal detected" true
    (Array.length es.Solve.es_removed_seeds > 0);
  Alcotest.check Alcotest.bool "seed addition detected" true
    (Array.length es.Solve.es_added_seeds > 0);
  Alcotest.check Alcotest.int "no edge edits for a seed patch" 0
    (Array.length es.Solve.es_removed_edges + Array.length es.Solve.es_added_edges);
  (* adding a call adds an op, matched ops keep their indices *)
  let added = apply_patch app (load_patch "add_handler.json") in
  let es = Diff.edit_script ~old_:base ~new_:(shape_of added) in
  Alcotest.check Alcotest.bool "added op detected" true
    (Array.exists (fun x -> x < 0) es.Solve.es_new_to_old);
  Alcotest.check Alcotest.bool "old ops all survive" true
    (Array.for_all (fun x -> x >= 0) es.Solve.es_old_to_new)

(* ------------------------------------------------------------------ *)
(* Snapshots *)

let test_snapshot_roundtrip () =
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved app in
  let path = Filename.temp_file "gator_snap" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Snapshot.save solved path;
      match Snapshot.load path with
      | Error e -> Alcotest.failf "round-trip load failed: %s" e
      | Ok loaded ->
          let app' = apply_patch app (load_patch "add_handler.json") in
          let warm, _ = Incremental.analyze_incremental ~prev:loaded app' in
          check_warm ~msg:"snapshot warm" warm;
          check_same_solution ~msg:"snapshot warm" (Analysis.analyze app') warm)

let test_snapshot_corrupt () =
  let path = Filename.temp_file "gator_snap" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "{not json!");
      (match Snapshot.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "corrupt file loaded");
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "{\"magic\": \"SOMETHING-ELSE\", \"version\": 1}");
      match Snapshot.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "foreign file loaded");
  (* A well-formed document whose solution rows name an id past the end
     of its pool: rows are decoded lazily after loading, so the loader
     must refuse the document up front. *)
  let _, solved = Incremental.analyze_solved (inc_app ()) in
  let it = Solve.solved_interner solved in
  let dangle field id = function
    | Util.Json.Obj fields ->
        Util.Json.Obj
          (List.map
             (function
               | f, Util.Json.List (Util.Json.List [ i; _ ] :: rest) when f = field ->
                   (f, Util.Json.List (Util.Json.List [ i; Util.Json.List [ Util.Json.Int id ] ] :: rest))
               | kv -> kv)
             fields)
    | _ -> Alcotest.fail "snapshot is not an object"
  in
  List.iter
    (fun (field, id) ->
      match Snapshot.of_json (dangle field id (Snapshot.to_json solved)) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "snapshot with a dangling %s id loaded" field)
    [
      ("sols", Intern.value_count it);
      ("children", Intern.view_count it);
      ("listeners", Intern.listener_count it);
    ]

let test_snapshot_stale_version () =
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved app in
  let stale =
    match Snapshot.to_json solved with
    | Util.Json.Obj fields ->
        Util.Json.Obj
          (List.map (function "version", _ -> ("version", Util.Json.Int 999) | f -> f) fields)
    | _ -> Alcotest.fail "snapshot is not an object"
  in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  match Snapshot.of_json stale with
  | Error e ->
      Alcotest.check Alcotest.bool "reason names the version" true (contains ~sub:"version" e)
  | Ok _ -> Alcotest.fail "stale version accepted"

(* A snapshot document with one config field replaced. *)
let with_config_field name value = function
  | Util.Json.Obj fields ->
      Util.Json.Obj
        (List.map
           (function
             | "config", Util.Json.Obj cfields ->
                 let set (k, v) = (k, if k = name then value else v) in
                 ("config", Util.Json.Obj (List.map set cfields))
             | f -> f)
           fields)
  | _ -> Alcotest.fail "snapshot is not an object"

(* Load a committed snapshot of [inc_app]: it must load, pass the warm
   guard under today's default configuration, and warm-patch to exactly
   the cold solution. *)
let load_warm_fixture file =
  match Snapshot.load (fixture_path file) with
  | Error e -> Alcotest.failf "%s refused: %s" file e
  | Ok loaded ->
      let app = inc_app () in
      let graph = Extract.run ~interner:(Solve.solved_interner loaded) Config.default app in
      Alcotest.(check (option string)) (file ^ ": warm guard accepts") None
        (Solve.warm_guard loaded Config.default app graph);
      ignore (run_patch ~msg:(file ^ " warm") app loaded (load_patch "add_handler.json"));
      loaded

(* A snapshot written by an earlier build, kept as a fixture: a
   GATOR-SNAP v2 document of [inc_app] whose config still carries the
   four operational fields since retired ([ctx_keyed], [jobs],
   [incremental], [shared_intern]), and whose value and rid pools start
   with the 258/257-entry frozen resource windows that build's
   interners pre-reserved.  The codec ignores the retired fields and
   replays the pools positionally, so the document must load and
   warm-start. *)
let test_snapshot_earlier_build () =
  let it = Solve.solved_interner (load_warm_fixture "snapshot_v2_frozen_tier.json") in
  Alcotest.(check bool) "pools replayed with the frozen windows" true
    (Intern.value_count it > 258 && Intern.rid_count it >= 257)

(* A snapshot written by the last build whose configuration carried
   the solver's iteration cap, kept as a fixture: its config records
   ["max_iterations": 1000], the value every binary wrote, so it must
   load and warm-start.  The same document edited to record a cap of 1
   may hold a partial solution, so it must load as [Error]. *)
let test_snapshot_iteration_cap () =
  let file = "snapshot_v2_iteration_cap.json" in
  ignore (load_warm_fixture file);
  match Util.Json.of_string (In_channel.with_open_bin (fixture_path file) In_channel.input_all) with
  | Error e -> Alcotest.failf "%s does not parse: %s" file e
  | Ok doc -> (
      match Snapshot.of_json (with_config_field "max_iterations" (Util.Json.Int 1) doc) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "snapshot capped at 1 iteration loaded")

(* Snapshots written while a third, structural semi-naive engine
   existed may carry ["solver": "delta"].  That engine computed the
   interned engine's solution, so the codec decodes the field as
   [Interned]: the document loads, and the warm guard accepts it under
   today's default configuration. *)
let test_snapshot_retired_solver () =
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved app in
  let doc = with_config_field "solver" (Util.Json.String "delta") (Snapshot.to_json solved) in
  match Snapshot.of_json doc with
  | Error e -> Alcotest.failf "retired-solver snapshot refused: %s" e
  | Ok loaded ->
      Alcotest.check Alcotest.string "decoded solver" "interned"
        (Config.solver_name (Solve.solved_config loaded).Config.solver);
      let graph = Extract.run ~interner:(Solve.solved_interner loaded) Config.default app in
      Alcotest.check
        Alcotest.(option string)
        "warm guard accepts" None
        (Solve.warm_guard loaded Config.default app graph)

(* Context sensitivity and warm starts: clone numbers are minted per
   extraction, so a patch renumbers later clones and the warm guard
   must refuse — the documented fallback-to-full-solve path for cs
   snapshots.  The fallback, including across a snapshot round-trip of
   the cs solved state, stays bit-identical to a cold cs solve. *)
let test_cs_falls_back () =
  let config = { Config.default with inline_depth = 2 } in
  (* identity warm request on an app that actually clones callees
     (the cyclic app has no inlinable app-level calls): refused but
     identical *)
  let alias = Corpus.Gen.alias_heavy_app ~groups:3 ~sites_per_group:3 ~seed:7 () in
  let _, solved_alias = Incremental.analyze_solved ~config alias in
  let warm, _ = Incremental.analyze_incremental ~config ~prev:solved_alias alias in
  Alcotest.check Alcotest.bool "fell back" true (warm.stats.Solve.fallback <> None);
  Alcotest.check Alcotest.bool "not warm" false warm.stats.Solve.warm_solve;
  Alcotest.check
    Alcotest.(option string)
    "fallback reason"
    (Some "context-sensitive solve: clone numbers are minted per extraction")
    warm.stats.Solve.fallback;
  check_same_solution ~msg:"cs identity fallback" (Analysis.analyze ~config alias) warm;
  let app = inc_app () in
  let _, solved = Incremental.analyze_solved ~config app in
  (* the cs solved state round-trips (clone nodes are ordinary pool
     entries), and a warm request against the loaded state is again a
     clean full solve of the patched app *)
  let path = Filename.temp_file "gator_snap_cs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Snapshot.save solved path;
      match Snapshot.load path with
      | Error e -> Alcotest.failf "cs snapshot load failed: %s" e
      | Ok loaded ->
          let app' = apply_patch app (load_patch "add_handler.json") in
          let warm', _ = Incremental.analyze_incremental ~config ~prev:loaded app' in
          Alcotest.check Alcotest.bool "snapshot fell back" true
            (warm'.stats.Solve.fallback <> None);
          check_same_solution ~msg:"cs snapshot fallback" (Analysis.analyze ~config app') warm')

let test_fallback_surfaced () =
  (* the driver path for a bad state file: full solve with the reason
     in stats, not a crash *)
  let app = inc_app () in
  let r, _ = Incremental.analyze_solved ~fallback:"corrupt state file: boom" app in
  Alcotest.check Alcotest.bool "fallback surfaced" true
    (r.stats.Solve.fallback = Some "corrupt state file: boom");
  Alcotest.check Alcotest.bool "not warm" false r.stats.Solve.warm_solve

(* ------------------------------------------------------------------ *)
(* Property: random cyclic apps, random edits, warm == cold *)

let qcheck_warm_equals_cold =
  QCheck.Test.make ~name:"warm re-solve equals cold solve on random patches" ~count:25
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Util.Prng.create seed in
      let app = Corpus.Gen.random_cyclic_app rng in
      let edit =
        match Util.Prng.int rng 3 with
        | 0 -> Corpus.Patch.Rename_view_id { from_ = "vid_leaf"; to_ = "vid_root" }
        | 1 ->
            let body_len =
              match find_method app ~cls:"Cyclic_Activity" ~name:"onCreate" ~arity:0 with
              | Some m -> List.length m.Jir.Ast.m_body
              | None -> QCheck.Test.fail_report "Cyclic_Activity.onCreate not found"
            in
            Corpus.Patch.Remove_stmt
              {
                cls = "Cyclic_Activity";
                meth = "onCreate";
                arity = 0;
                index = Util.Prng.int rng body_len;
              }
        | _ ->
            Corpus.Patch.Add_stmt
              {
                cls = "Cyclic_Activity";
                meth = "onCreate";
                arity = 0;
                stmt = Jir.Ast.Copy ("ch0_1", "ch0_0");
              }
      in
      let _, solved = Incremental.analyze_solved app in
      let app' =
        match Corpus.Patch.apply app [ edit ] with
        | Ok app' -> app'
        | Error e -> QCheck.Test.fail_reportf "patch failed: %s" e
      in
      let warm, _ = Incremental.analyze_incremental ~prev:solved app' in
      if not warm.stats.Solve.warm_solve then QCheck.Test.fail_report "solve was not warm";
      let d = Diff.compare (Analysis.analyze app') warm in
      if not (Diff.is_empty d) then QCheck.Test.fail_reportf "solutions differ: %a" Diff.pp d;
      true)

let qcheck_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot round-trip preserves warm solves" ~count:10
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Util.Prng.create seed in
      let app = Corpus.Gen.random_cyclic_app rng in
      let _, solved = Incremental.analyze_solved app in
      match Snapshot.of_json (Snapshot.to_json solved) with
      | Error e -> QCheck.Test.fail_reportf "round trip failed: %s" e
      | Ok loaded ->
          let app' =
            match
              Corpus.Patch.apply app
                [ Corpus.Patch.Rename_view_id { from_ = "vid_leaf"; to_ = "vid_root" } ]
            with
            | Ok app' -> app'
            | Error e -> QCheck.Test.fail_reportf "patch failed: %s" e
          in
          let warm, _ = Incremental.analyze_incremental ~prev:loaded app' in
          if not warm.stats.Solve.warm_solve then QCheck.Test.fail_report "solve was not warm";
          let d = Diff.compare (Analysis.analyze app') warm in
          if not (Diff.is_empty d) then QCheck.Test.fail_reportf "solutions differ: %a" Diff.pp d;
          true)

let suite =
  [
    Alcotest.test_case "warm identity re-solve" `Quick test_warm_identity;
    Alcotest.test_case "patch: add handler" `Quick test_patch_add_handler;
    Alcotest.test_case "patch: rename id" `Quick test_patch_rename_id;
    Alcotest.test_case "patch: remove view" `Quick test_patch_remove_view;
    Alcotest.test_case "patch: cycle split" `Quick test_patch_cycle_split;
    Alcotest.test_case "patch chain (warm of warm)" `Quick test_patch_chain;
    Alcotest.test_case "config change falls back" `Quick test_config_change_falls_back;
    Alcotest.test_case "method addition stays warm" `Quick test_methods_changed_not_fallback;
    Alcotest.test_case "edit script covers all kinds" `Quick test_edit_script_kinds;
    Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot corrupt input" `Quick test_snapshot_corrupt;
    Alcotest.test_case "snapshot stale version" `Quick test_snapshot_stale_version;
    Alcotest.test_case "snapshot from an earlier build" `Quick test_snapshot_earlier_build;
    Alcotest.test_case "snapshot recording the iteration cap" `Quick test_snapshot_iteration_cap;
    Alcotest.test_case "snapshot from the retired delta solver" `Quick test_snapshot_retired_solver;
    Alcotest.test_case "fallback surfaced in stats" `Quick test_fallback_surfaced;
    Alcotest.test_case "cs solve falls back" `Quick test_cs_falls_back;
    QCheck_alcotest.to_alcotest qcheck_warm_equals_cold;
    QCheck_alcotest.to_alcotest qcheck_snapshot_roundtrip;
  ]
