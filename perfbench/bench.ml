(* Benchmark entry point: one workload, one seed, one mode.

     bench.exe --workload corpus|context2|serve --seed N --seconds S --trace 0|1

   Prints the environment, every metric with its unit, any check
   failures, and as its last line the result object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  The result
   (with the environment) and, when traced, a Chrome trace-event file
   are also written under _perfbench/.  Exits 1 when any check fails. *)

module J = Util.Json
open Perfbench

let workload = ref ""

let seed = ref 1

let seconds = ref 10.0

let trace = ref 0

let jobs = ref 0

let nproc = ref 0

let commit = ref "unknown"

let cpu = ref (-1)

(* Results, traces, sockets and daemon state go here, inside the
   checkout the benchmark runs from. *)
let dir = "_perfbench"

let corrupt = ref false

let spec =
  [
    ("--workload", Arg.Set_string workload, "corpus | context2 | serve");
    ("--seed", Arg.Set_int seed, "input seed");
    ("--seconds", Arg.Set_float seconds, "measuring budget");
    ("--trace", Arg.Set_int trace, "1: traced run reporting per-layer metrics");
    ("--jobs", Arg.Set_int jobs, "pool domains (default: nproc)");
    ("--nproc", Arg.Set_int nproc, "usable cores (default: recommended domain count)");
    ("--commit", Arg.Set_string commit, "source revision, for the environment record");
    ("--cpu", Arg.Set_int cpu, "the one CPU the run is pinned to, for the environment record");
    ("--corrupt-reference", Arg.Set corrupt, "perturb the reference answers (every check must fail)");
  ]

let iso_date () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.tm_year + 1900) (t.tm_mon + 1) t.tm_mday t.tm_hour
    t.tm_min t.tm_sec

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--probe" then exit 0;
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe [options]";
  let run =
    match !workload with
    | "corpus" -> Corpus_wl.run
    | "context2" -> Context_wl.run
    | "serve" -> Serve_wl.run
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  in
  let recommended = Domain.recommended_domain_count () in
  let nproc = if !nproc > 0 then !nproc else recommended in
  let jobs = if !jobs > 0 then !jobs else nproc in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let env =
    J.Obj
      [
        ("workload", J.String !workload);
        ("seed", J.Int !seed);
        ("seconds", J.Float !seconds);
        ("trace", J.Bool (!trace = 1));
        ("jobs", J.Int jobs);
        ("nproc", J.Int nproc);
        ("recommended_domain_count", J.Int recommended);
        ("oversubscribed", J.Bool (jobs > nproc));
        ("pinned_cpu", if !cpu >= 0 then J.Int !cpu else J.Null);
        ("ocaml_version", J.String Sys.ocaml_version);
        ("ocamlrunparam", J.String (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")));
        ("commit", J.String !commit);
        ("date", J.String (iso_date ()));
      ]
  in
  print_endline ("env " ^ J.to_string env);
  let params =
    {
      Measure.seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      jobs;
      setups = 5;
      dir;
      corrupt = !corrupt;
    }
  in
  let outcome, spans = run params in
  let nesting = Span.nesting_violations spans in
  let failures =
    outcome.failures
    @ if nesting = [] then [] else [ Printf.sprintf "%d spans do not nest" (List.length nesting) ]
  in
  let failed = outcome.failed + List.length nesting in
  let correct = failed = 0 in
  let error_rate = float failed /. float (max 1 outcome.attempted) in
  let detail = outcome.detail @ [ Measure.metric "error_rate" "ratio" error_rate ] in
  List.iter
    (fun (m : Measure.metric) -> Printf.printf "metric %-24s %14.6f %s\n" m.name m.value m.unit_)
    (outcome.metrics @ detail);
  List.iter (fun msg -> Printf.printf "FAILED %s\n" msg) failures;
  let stem = Printf.sprintf "%s-seed%d-trace%d" !workload !seed !trace in
  if !trace = 1 then Span.write_chrome (Filename.concat dir (stem ^ ".trace.json")) spans;
  let result =
    J.Obj
      [
        ("correct", J.Bool correct);
        ("attempted", J.Int outcome.attempted);
        ("failed", J.Int failed);
        ("metrics", Measure.metrics_json outcome.metrics);
      ]
  in
  let record =
    J.Obj
      [
        ("env", env);
        ("result", result);
        ("detail", Measure.metrics_json detail);
        ("failures", J.List (List.map (fun s -> J.String s) failures));
      ]
  in
  let oc = open_out_bin (Filename.concat dir (stem ^ ".json")) in
  output_string oc (J.to_string ~pretty:true record);
  close_out oc;
  print_endline (J.to_string result);
  exit (if correct then 0 else 1)
