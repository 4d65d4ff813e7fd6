(* The benchmark's own checks: traced runs give exact work counts, spans
   nest and account for operation wall time, and a corrupted reference
   fails the run. *)

open Perfbench

let params ?(corrupt = false) ~trace () =
  { Measure.seed = 3; seconds = 0.01; trace; jobs = 2; setups = 1; dir = "_perfbench"; corrupt }

let () = if not (Sys.file_exists "_perfbench") then Sys.mkdir "_perfbench" 0o755

let value (o : Measure.outcome) name =
  match List.find_opt (fun (m : Measure.metric) -> m.name = name) o.metrics with
  | Some m -> m.value
  | None -> Alcotest.failf "metric %s missing" name

let run_of = function
  | "corpus" -> Corpus_wl.run
  | "context2" -> Context_wl.run
  | "serve" -> Serve_wl.run
  | w -> invalid_arg w

let span_names = function
  | "corpus" -> [ "op"; "parse"; "extract"; "solve"; "metrics" ]
  | "context2" -> [ "op"; "extract"; "solve"; "metrics" ]
  | _ -> [ "read"; "query"; "patch"; "patch.apply"; "incremental"; "query.create"; "snapshot.save" ]

(* Two traced runs of one seed: identical work counters, well-nested
   spans covering every layer, and layer self times plus the
   unattributed remainder equal to operation wall time. *)
let traced workload () =
  let run () = run_of workload (params ~trace:true ()) in
  let a, spans = run () in
  let b, _ = run () in
  Alcotest.(check int) "no failures" 0 a.failed;
  List.iter
    (fun name ->
      Alcotest.(check (float 0.0)) (workload ^ " " ^ name) (value a name) (value b name))
    Layers.exact_counters;
  Alcotest.(check int) "spans nest" 0 (List.length (Span.nesting_violations spans));
  List.iter
    (fun name ->
      if not (List.exists (fun (s : Span.t) -> s.name = name) spans) then
        Alcotest.failf "%s: no %s span" workload name)
    (span_names workload);
  let ops = List.filter (fun (s : Span.t) -> s.parent < 0) spans in
  let self = Span.self_times spans in
  let layer_sum = Hashtbl.fold (fun _ (s : Span.self) acc -> acc +. s.self_ns) self 0.0 in
  let wall = List.fold_left (fun acc s -> acc +. Span.duration_ns s) 0.0 ops in
  Alcotest.(check (float (1e-9 *. wall))) "self times account for wall time" wall layer_sum;
  if workload <> "serve" then
    let layers =
      List.fold_left
        (fun acc name -> acc +. value a name)
        0.0
        [ "parse.ms"; "extract.ms"; "solve.ms"; "metrics.ms"; "op.unattributed_ms" ]
    in
    Alcotest.(check (float 1e-6)) "layer metrics account for op.wall_ms" (value a "op.wall_ms") layers

let corrupted workload () =
  let o, _ = run_of workload (params ~corrupt:true ~trace:false ()) in
  if o.failed = 0 then Alcotest.failf "%s: a corrupted reference passed the checks" workload

let () =
  Alcotest.run "perfbench"
    [
      (* serve forks its daemon, so it runs before any pool domain exists *)
      ( "serve",
        [
          Alcotest.test_case "traced counts exact" `Slow (traced "serve");
          Alcotest.test_case "corrupted reference fails" `Slow (corrupted "serve");
        ] );
      ( "corpus",
        [
          Alcotest.test_case "traced counts exact" `Slow (traced "corpus");
          Alcotest.test_case "corrupted reference fails" `Slow (corrupted "corpus");
        ] );
      ( "context2",
        [
          Alcotest.test_case "traced counts exact" `Slow (traced "context2");
          Alcotest.test_case "corrupted reference fails" `Slow (corrupted "context2");
        ] );
    ]
