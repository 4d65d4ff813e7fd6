(* Benchmark harness.

   Running this executable regenerates every table and figure of the
   paper's evaluation (Sections 5; see DESIGN.md for the index) and then
   times the analysis phases with Bechamel — one Test.make per
   table/figure, plus ablation benches for the design knobs. *)

open Bechamel
open Toolkit

let app_named name = Corpus.Gen.generate (Option.get (Corpus.Apps.by_name name))

(* The small patch the incremental benches re-solve: one added
   allocation in an activity's onCreate.  Flow/seed-only — a New
   statement contributes a fresh node, edge and seed but no
   relation-writing op, so the warm restart invalidates only the new
   component. *)
let xbmc_small_patch app =
  let patch =
    [
      Corpus.Patch.Add_stmt
        {
          cls = "Activity_0";
          meth = "onCreate";
          arity = 0;
          stmt = Jir.Ast.New ("inc_bench_tmp", "android.widget.Button");
        };
    ]
  in
  match Corpus.Patch.apply app patch with
  | Ok patched -> patched
  | Error msg -> failwith ("incremental bench patch failed: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Reproduction output: the rows/series the paper reports. *)

let print_reproduction () =
  let runs = Report.Experiments.run_corpus () in
  print_endline (Report.Experiments.table1 runs);
  print_newline ();
  print_endline (Report.Experiments.table2 runs);
  print_newline ();
  print_endline (Report.Experiments.solver_stats runs);
  print_newline ();
  print_endline (Report.Experiments.case_study ());
  print_newline ();
  print_endline (Report.Experiments.ablations ());
  print_newline ();
  print_endline (Report.Experiments.context_precision ());
  print_newline ();
  print_endline (Report.Experiments.scalability ());
  print_newline ();
  (* figures: print the fact checklist, not the full dot graph *)
  let figures = Report.Experiments.figures () in
  (match String.index_opt figures '\n' with
  | Some _ ->
      String.split_on_char '\n' figures
      |> List.filter (fun line ->
             String.length line > 2 && (String.sub line 0 3 = "Fig" || String.sub line 2 1 = "["))
      |> List.iter print_endline
  | None -> ());
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks. *)

let config_bench name config app =
  Test.make ~name (Staged.stage (fun () -> Gator.Analysis.analyze ~config app))

let tests () =
  (* Pre-generate apps so the benches time analysis, not generation. *)
  let connectbot = Corpus.Connectbot.app () in
  let apv = app_named "APV" in
  let mileage = app_named "Mileage" in
  let xbmc = app_named "XBMC" in
  let astrid = app_named "Astrid" in
  let spec_notepad = Option.get (Corpus.Apps.by_name "NotePad") in
  [
    (* Table 1: population measurement = generation + extraction + metrics *)
    Test.make ~name:"table1/generate+extract(NotePad)"
      (Staged.stage (fun () ->
           let app = Corpus.Gen.generate spec_notepad in
           Gator.Extract.run Gator.Config.default app));
    Test.make ~name:"table1/metrics(APV)"
      (Staged.stage
         (let r = Gator.Analysis.analyze apv in
          fun () -> Gator.Metrics.table1 r));
    (* Table 2: full analysis per representative app *)
    Test.make ~name:"table2/analyze(APV)" (Staged.stage (fun () -> Gator.Analysis.analyze apv));
    Test.make ~name:"table2/analyze(Mileage)"
      (Staged.stage (fun () -> Gator.Analysis.analyze mileage));
    Test.make ~name:"table2/analyze(XBMC)" (Staged.stage (fun () -> Gator.Analysis.analyze xbmc));
    Test.make ~name:"table2/analyze(Astrid)"
      (Staged.stage (fun () -> Gator.Analysis.analyze astrid));
    (* Case study: dynamic oracle execution + coverage check *)
    Test.make ~name:"casestudy/dynamic-oracle(APV)"
      (Staged.stage
         (let r = Gator.Analysis.analyze apv in
          fun () -> Dynamic.Oracle.check r (Dynamic.Interp.run apv)));
    (* Figures: the running example end to end *)
    Test.make ~name:"figures/connectbot-analysis"
      (Staged.stage (fun () -> Gator.Analysis.analyze connectbot));
    Test.make ~name:"figures/connectbot-dot"
      (Staged.stage
         (let r = Gator.Analysis.analyze connectbot in
          fun () -> Fmt.str "%a" Gator.Graph.pp_dot r.Gator.Analysis.graph));
    (* Solver engines head to head on the largest app: same extracted
       graph, naive re-iteration vs interned semi-naive scheduling *)
    Test.make ~name:"analysis/naive(XBMC)"
      (Staged.stage
         (let graph = Gator.Extract.run Gator.Config.default xbmc in
          let config = { Gator.Config.default with solver = Gator.Config.Naive } in
          fun () -> Gator.Solve.run config xbmc graph));
    Test.make ~name:"analysis/interned(XBMC)"
      (Staged.stage
         (let graph = Gator.Extract.run Gator.Config.default xbmc in
          let config = { Gator.Config.default with solver = Gator.Config.Interned } in
          fun () -> Gator.Solve.run config xbmc graph));
    (* The interned engine solves over the SCC-condensed flow CSR;
       this row tracks the condensed path under its own name for
       regression greps.  XBMC's flow is nearly acyclic (every
       component a singleton), so it should sit at par with the row
       above — the cycle-heavy win is measured in the head-to-head. *)
    Test.make ~name:"analysis/scc(XBMC)"
      (Staged.stage
         (let graph = Gator.Extract.run Gator.Config.default xbmc in
          let config = { Gator.Config.default with solver = Gator.Config.Interned } in
          fun () -> Gator.Solve.run config xbmc graph));
    (* Sound mode: unknown-id markers and the taint post-pass.  XBMC
       is ⊤-free — its share of the row prices the [has_top] guard on
       the unchanged path — while the reflection-heavy app makes every
       marker rule and the taint lift actually fire. *)
    Test.make ~name:"analysis/reflection(XBMC+ReflHeavy)"
      (Staged.stage
         (let refl = Corpus.Gen.reflective_app ~name:"ReflHeavy" ~layouts:3 ~seed:2014 () in
          let xbmc_graph = Gator.Extract.run Gator.Config.default xbmc in
          let refl_graph = Gator.Extract.run Gator.Config.default refl in
          fun () ->
            ignore (Gator.Solve.run Gator.Config.default xbmc xbmc_graph);
            Gator.Solve.run Gator.Config.default refl refl_graph));
    (* Context sensitivity, solve-only like the engine rows above: the
       inliner names every clone variable with [Node.clone_var], so the
       solve runs clone-chain substitution before condensing.  Read
       against analysis/interned(XBMC) for the solve-time cost of
       depth 2; the full extract+solve cost is tracked by
       ablation/context-sensitive-2 below. *)
    Test.make ~name:"analysis/cs2-interned(XBMC)"
      (Staged.stage
         (let config = { Gator.Config.default with inline_depth = 2 } in
          let graph = Gator.Extract.run config xbmc in
          fun () -> Gator.Solve.run config xbmc graph));
    (* Incremental re-analysis: cold solve-and-capture vs warm re-solve
       of a one-statement patch over the same interner.  The patch adds
       a single allocation (flow/seed-only — no relation-writing op),
       so the warm path re-solves just the fresh component and restores
       everything else by aliasing. *)
    Test.make ~name:"analysis/incremental-cold(XBMC)"
      (Staged.stage
         (let graph = Gator.Extract.run Gator.Config.default xbmc in
          fun () -> Gator.Solve.run_solved Gator.Config.default xbmc graph));
    Test.make ~name:"analysis/incremental-warm-small-patch(XBMC)"
      (Staged.stage
         (let _, prev = Gator.Incremental.analyze_solved xbmc in
          let patched = xbmc_small_patch xbmc in
          let graph =
            Gator.Extract.run ~interner:(Gator.Solve.solved_interner prev) Gator.Config.default
              patched
          in
          let new_shape = Gator.Solve.shape_of_graph graph in
          let edits =
            Gator.Diff.edit_script ~old_:(Gator.Solve.shape_of_solved prev) ~new_:new_shape
          in
          fun () ->
            Gator.Solve.run_incremental ~prev ~edits ~new_shape Gator.Config.default patched
              graph));
    (* Ablations: each knob on the XBMC outlier *)
    config_bench "ablation/default(XBMC)" Gator.Config.default xbmc;
    config_bench "ablation/no-cast-filter(XBMC)"
      { Gator.Config.default with cast_filtering = false }
      xbmc;
    config_bench "ablation/no-findone-refinement(XBMC)"
      { Gator.Config.default with findone_refinement = false }
      xbmc;
    config_bench "ablation/baseline(XBMC)" Gator.Config.baseline xbmc;
    config_bench "ablation/context-sensitive-2(XBMC)"
      { Gator.Config.default with inline_depth = 2 }
      xbmc;
  ]

(* ------------------------------------------------------------------ *)
(* Sequential vs parallel full-corpus head-to-head: the same 20-app
   batch (generation + analysis + metrics per app) on the exact
   sequential path and on the domain pool, with a byte-identity check
   on the regenerated tables. *)

let corpus_head_to_head () =
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let seq, seq_seconds = time (fun () -> Report.Experiments.run_corpus ~jobs:1 ()) in
  let entries =
    List.map
      (fun jobs ->
        let par, par_seconds = time (fun () -> Report.Experiments.run_corpus ~jobs ()) in
        let identical =
          Report.Experiments.table1 par = Report.Experiments.table1 seq
          && Report.Experiments.table2 ~timings:false par
             = Report.Experiments.table2 ~timings:false seq
          && Report.Experiments.solver_stats par = Report.Experiments.solver_stats seq
        in
        (jobs, par_seconds, identical))
      [ 2; 4 ]
  in
  Printf.printf "Full-corpus batch head-to-head (20 apps; %d core(s) recommended):\n"
    (Domain.recommended_domain_count ());
  Printf.printf "  jobs=1  %6.3f s\n" seq_seconds;
  List.iter
    (fun (jobs, seconds, identical) ->
      Printf.printf "  jobs=%d  %6.3f s  %.2fx  tables %s\n" jobs seconds (seq_seconds /. seconds)
        (if identical then "identical" else "DIFFER"))
    entries;
  print_newline ();
  (1, seq_seconds, true) :: entries

(* ------------------------------------------------------------------ *)
(* Solver-engine head-to-head over the whole corpus: every app is
   generated and extracted once up front, then each engine re-solves
   all 20 graphs — so the comparison isolates the fixpoint engines
   from parsing, extraction, and metrics. *)

let time_engines prepared =
  let time_engine solver =
    let config = { Gator.Config.default with solver } in
    let solve_all () =
      List.iter (fun (app, graph) -> ignore (Gator.Solve.run config app graph)) prepared
    in
    solve_all ();
    (* warm-up: inflation memos, allocators, frozen-flow CSRs *)
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      solve_all ();
      best := min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let naive_seconds = time_engine Gator.Config.Naive in
  let interned_seconds = time_engine Gator.Config.Interned in
  (naive_seconds, interned_seconds)

let engine_head_to_head () =
  let prepared =
    List.map
      (fun spec ->
        let app = Corpus.Gen.generate spec in
        (app, Gator.Extract.run Gator.Config.default app))
      Corpus.Apps.specs
  in
  let naive_seconds, interned_seconds = time_engines prepared in
  Printf.printf "Full-corpus solver head-to-head (solve phase only, %d apps, best of 3):\n"
    (List.length prepared);
  Printf.printf "  naive     %7.4f s\n" naive_seconds;
  Printf.printf "  interned  %7.4f s  %.2fx\n" interned_seconds (naive_seconds /. interned_seconds);
  print_newline ();
  (List.length prepared, naive_seconds, interned_seconds)

(* Cycle-heavy head-to-head: where the SCC condensation actually pays.
   Rings of copies make the structural naive engine chase values all
   the way around each ring, while the condensed engine keeps one
   shared set per component and never propagates inside it. *)
let cyclic_head_to_head () =
  let prepared =
    List.init 8 (fun i ->
        let app =
          Corpus.Gen.cyclic_app
            ~name:(Printf.sprintf "Cyc%d" i)
            ~chains:6
            ~chain_len:(120 + (24 * i))
            ~two_cycles:8 ~bridges:12 ~seed:(77 + i) ()
        in
        (app, Gator.Extract.run Gator.Config.default app))
  in
  let naive_seconds, interned_seconds = time_engines prepared in
  Printf.printf "Cycle-heavy solver head-to-head (solve phase only, %d apps, best of 3):\n"
    (List.length prepared);
  Printf.printf "  naive          %7.4f s\n" naive_seconds;
  Printf.printf "  interned (scc) %7.4f s  %.2fx\n" interned_seconds
    (naive_seconds /. interned_seconds);
  print_newline ();
  (List.length prepared, naive_seconds, interned_seconds)

(* Incremental head-to-head on XBMC: full interned solve of the
   patched app from scratch vs the warm restart from the
   previous solve's captured state, best of 5 each, with a
   bit-identity check on the resulting analyses. *)
let incremental_head_to_head () =
  let xbmc = app_named "XBMC" in
  let config = Gator.Config.default in
  let _, prev = Gator.Incremental.analyze_solved ~config xbmc in
  let patched = xbmc_small_patch xbmc in
  let best_of n f =
    ignore (f ());
    let best = ref infinity in
    for _ = 1 to n do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      best := min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  (* full: from-scratch interned solve of the patched graph *)
  let cold_graph = Gator.Extract.run config patched in
  let full_seconds = best_of 5 (fun () -> Gator.Solve.run_solved config patched cold_graph) in
  (* warm: restart over the shared interner *)
  let warm_graph =
    Gator.Extract.run ~interner:(Gator.Solve.solved_interner prev) config patched
  in
  let new_shape = Gator.Solve.shape_of_graph warm_graph in
  let edits = Gator.Diff.edit_script ~old_:(Gator.Solve.shape_of_solved prev) ~new_:new_shape in
  let warm_seconds =
    best_of 5 (fun () ->
        Gator.Solve.run_incremental ~prev ~edits ~new_shape config patched warm_graph)
  in
  let warm_stats, _ =
    Gator.Solve.run_incremental ~prev ~edits ~new_shape config patched warm_graph
  in
  (* bit-identity: the warm analysis must match a cold one exactly *)
  let cold_analysis, _ = Gator.Incremental.analyze_solved ~config patched in
  let warm_analysis, _ = Gator.Incremental.analyze_incremental ~config ~prev patched in
  let identical = Gator.Diff.is_empty (Gator.Diff.compare cold_analysis warm_analysis) in
  let ratio = warm_seconds /. full_seconds in
  Printf.printf "Incremental re-analysis on XBMC (solve phase, best of 5):\n";
  Printf.printf "  full (cold)        %9.6f s\n" full_seconds;
  Printf.printf "  warm small patch   %9.6f s  (%.2f%% of full)\n" warm_seconds (100. *. ratio);
  Printf.printf "  warm=%b fallback=%s dirty=%d reused=%d sccs=%d  bit-identical %s\n"
    warm_stats.Gator.Solve.warm_solve
    (Option.value ~default:"-" warm_stats.Gator.Solve.fallback)
    warm_stats.Gator.Solve.dirty_comps warm_stats.Gator.Solve.reused_comps
    warm_stats.Gator.Solve.scc_count
    (if identical then "yes" else "NO");
  print_newline ();
  (full_seconds, warm_seconds, ratio, warm_stats, identical)

(* Streaming ingestion: the same generated stream driven through
   [Experiments.run_stream] at several job counts.  The rows each run
   spills are compared order-normalized against the jobs-1 rows — the
   schedule may never leak into results — and the apps-per-second
   figures land in BENCH_results.json as the [stream] series. *)
let stream_head_to_head () =
  let apps = 600 and seed = 42 in
  let run jobs =
    let rows = ref [] in
    let t0 = Unix.gettimeofday () in
    ignore
      (Report.Experiments.run_stream ~jobs ~timings:false ~seed ~apps
         ~emit:(fun row -> rows := row :: !rows)
         ());
    (Unix.gettimeofday () -. t0, List.sort compare !rows)
  in
  let best_of n jobs =
    ignore (run jobs);
    let best = ref infinity and rows = ref [] in
    for _ = 1 to n do
      let seconds, r = run jobs in
      if seconds < !best then begin
        best := seconds;
        rows := r
      end
    done;
    (!best, !rows)
  in
  Printf.printf "Streaming ingestion (%d generated apps, best of 3):\n" apps;
  let reference = ref [] in
  let entries =
    List.map
      (fun jobs ->
        let seconds, rows = best_of 3 jobs in
        if jobs = 1 then reference := rows;
        let identical = rows = !reference in
        Printf.printf "  jobs=%d  %6.3f s (%6.1f apps/s)  rows %s\n" jobs seconds
          (float_of_int apps /. seconds)
          (if identical then "identical" else "DIFFER");
        (jobs, seconds, identical))
      [ 1; 4; 8 ]
  in
  print_newline ();
  (apps, entries)

(* Machine-readable results: per-test median nanoseconds and GC words
   plus the solver work counters, for regression tracking across
   commits. *)
let write_json_results rows corpus_batch engines cyclic incremental stream =
  let solver_counters =
    let app = app_named "XBMC" in
    List.map
      (fun solver ->
        let config = { Gator.Config.default with solver } in
        let row = Gator.Metrics.solver_stats (Gator.Analysis.analyze ~config app) in
        Util.Json.Obj
          [
            ("app", Util.Json.String row.Gator.Metrics.sv_app);
            ("solver", Util.Json.String row.sv_solver);
            ("ops", Util.Json.Int row.sv_ops);
            ("iterations", Util.Json.Int row.sv_iterations);
            ("op_applications", Util.Json.Int row.sv_op_applications);
            ("naive_equivalent", Util.Json.Int row.sv_naive_equivalent);
            ("propagations", Util.Json.Int row.sv_propagations);
            ("interned_values", Util.Json.Int row.sv_interned_values);
            ("bitset_words", Util.Json.Int row.sv_bitset_words);
            ("union_calls", Util.Json.Int row.sv_union_calls);
            ("scc_count", Util.Json.Int row.sv_scc_count);
            ("largest_scc", Util.Json.Int row.sv_largest_scc);
          ])
      [ Gator.Config.Naive; Gator.Config.Interned ]
  in
  let seq_seconds =
    match corpus_batch with (_, s, _) :: _ -> s | [] -> Float.nan
  in
  let batch_entries =
    List.map
      (fun (jobs, seconds, identical) ->
        Util.Json.Obj
          [
            ("jobs", Util.Json.Int jobs);
            ("seconds", Util.Json.Float seconds);
            ("speedup", Util.Json.Float (seq_seconds /. seconds));
            ("tables_identical", Util.Json.Bool identical);
          ])
      corpus_batch
  in
  let engine_entry (apps, naive_seconds, interned_seconds) key =
    Util.Json.Obj
      [
        (key, Util.Json.Int apps);
        ("naive_seconds", Util.Json.Float naive_seconds);
        ("interned_seconds", Util.Json.Float interned_seconds);
        ("speedup", Util.Json.Float (naive_seconds /. interned_seconds));
      ]
  in
  let json =
    Util.Json.Obj
      [
        ( "benchmarks",
          Util.Json.List
            (List.map
               (fun (name, nanos, minor, major) ->
                 Util.Json.Obj
                   [
                     ("name", Util.Json.String name);
                     ("nanos", Util.Json.Float nanos);
                     ("minor_words", Util.Json.Float minor);
                     ("major_words", Util.Json.Float major);
                   ])
               rows) );
        ("solver_stats", Util.Json.List solver_counters);
        ("corpus_batch", Util.Json.List batch_entries);
        ("solver_head_to_head", engine_entry engines "corpus_apps");
        ("cycle_heavy_head_to_head", engine_entry cyclic "cyclic_apps");
        ( "incremental",
          let full_seconds, warm_seconds, ratio, warm_stats, identical = incremental in
          Util.Json.Obj
            [
              ("app", Util.Json.String "XBMC");
              ("full_seconds", Util.Json.Float full_seconds);
              ("warm_small_patch_seconds", Util.Json.Float warm_seconds);
              ("warm_over_full", Util.Json.Float ratio);
              ("warm_solve", Util.Json.Bool warm_stats.Gator.Solve.warm_solve);
              ("dirty_comps", Util.Json.Int warm_stats.Gator.Solve.dirty_comps);
              ("reused_comps", Util.Json.Int warm_stats.Gator.Solve.reused_comps);
              ("scc_count", Util.Json.Int warm_stats.Gator.Solve.scc_count);
              ("bit_identical", Util.Json.Bool identical);
            ] );
        ( "stream",
          let stream_apps, entries = stream in
          Util.Json.List
            (List.map
               (fun (jobs, seconds, identical) ->
                 Util.Json.Obj
                   [
                     ("jobs", Util.Json.Int jobs);
                     ("apps", Util.Json.Int stream_apps);
                     ("seconds", Util.Json.Float seconds);
                     ("apps_per_sec", Util.Json.Float (float_of_int stream_apps /. seconds));
                     ("rows_identical", Util.Json.Bool identical);
                   ])
               entries) );
      ]
  in
  let path = "BENCH_results.json" in
  let oc = open_out path in
  output_string oc (Util.Json.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nWrote %s\n" path

let run_benchmarks () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock; minor_allocated; major_allocated ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let grouped = Test.make_grouped ~name:"gator" ~fmt:"%s %s" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let estimate results name =
    match Hashtbl.find_opt results name with
    | Some ols -> (
        match Analyze.OLS.estimates ols with Some [ est ] -> est | _ -> Float.nan)
    | None -> Float.nan
  in
  let nanos_by = Analyze.all ols Instance.monotonic_clock raw in
  let minor_by = Analyze.all ols Instance.minor_allocated raw in
  let major_by = Analyze.all ols Instance.major_allocated raw in
  let rows =
    Hashtbl.fold (fun name _ acc -> name :: acc) nanos_by []
    |> List.sort compare
    |> List.map (fun name ->
           (name, estimate nanos_by name, estimate minor_by name, estimate major_by name))
  in
  print_endline "Benchmarks (monotonic clock and GC words per run):";
  List.iter
    (fun (name, nanos, minor, major) ->
      let pretty =
        if nanos >= 1e9 then Printf.sprintf "%8.3f s " (nanos /. 1e9)
        else if nanos >= 1e6 then Printf.sprintf "%8.3f ms" (nanos /. 1e6)
        else Printf.sprintf "%8.3f us" (nanos /. 1e3)
      in
      Printf.printf "  %-45s %s  minor %12.0f w  major %10.0f w\n" name pretty minor major)
    rows;
  rows

let () =
  (* Solver warnings (e.g. the iteration cap) go to stderr. *)
  Logs.set_reporter (Logs_fmt.reporter ~dst:Fmt.stderr ());
  Logs.set_level (Some Logs.Warning);
  print_reproduction ();
  let corpus_batch = corpus_head_to_head () in
  let engines = engine_head_to_head () in
  let cyclic = cyclic_head_to_head () in
  let incremental = incremental_head_to_head () in
  let stream = stream_head_to_head () in
  let rows = run_benchmarks () in
  write_json_results rows corpus_batch engines cyclic incremental stream
