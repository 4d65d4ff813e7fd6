(* Workload [corpus]: the 20 Table 1 apps analysed from source text, as
   a CLI user runs the paper's evaluation.  One operation parses one
   app's ALite and layout XML, extracts, solves and computes its table
   rows; a pass submits all 20 to a Pool.Batch pool of [jobs] domains.
   The workload's heavy operation is the whole pass. *)

open Measure

type input = { spec : Corpus.Spec.t; code : string; layouts : (string * string) list }

(* Each app is generated from its seeded spec and printed once. *)
let inputs ~seed =
  Array.of_list
    (List.map
       (fun (spec : Corpus.Spec.t) ->
         let spec = Analyse.seeded_spec ~seed spec.sp_name in
         let app = Corpus.Gen.generate spec in
         {
           spec;
           code = Jir.Pp.program_to_string app.program;
           layouts =
             List.map
               (fun (d : Layouts.Layout.def) -> (d.name, Fmt.str "%a" Layouts.Layout.pp d))
               (Layouts.Package.raw_layouts app.package);
         })
       Corpus.Apps.specs)

let config = Gator.Config.default

let parse input =
  Framework.App.of_source ~name:input.spec.sp_name ~code:input.code ~layouts:input.layouts

let operation input =
  match Span.record "parse" (fun () -> parse input) with
  | Ok app -> Analyse.run config app
  | Error e -> failwith ("parse: " ^ e)

type pass = {
  wall : float;
  latency : float array;  (** seconds per operation, submission order *)
  results : (Analyse.row, string) result array;
}

let run_pass pool ~first_op inputs =
  let n = Array.length inputs in
  let latency = Array.make n 0.0 and results = Array.make n (Error "not run") in
  let t0 = now_ns () in
  Array.iteri
    (fun i input ->
      Pool.submit pool (fun () ->
          let t = now_ns () in
          let oc =
            Pool.run_task (fun () -> Span.operation ~id:(first_op + i) "op" (fun () -> operation input))
          in
          latency.(i) <- seconds_since t;
          results.(i) <- Result.map_error (fun e -> e.Pool.err_exn) oc.Pool.oc_result))
    inputs;
  Pool.wait pool;
  { wall = seconds_since t0; latency; results }

(* Program set-up: start the program, spawn the pool and run one empty
   task per worker.  The pool is spawned [setups] times; the last pool
   is kept for the run. *)
let setup (p : params) =
  let start = program_start p.setups in
  let times = ref [] and pool = ref None in
  for _ = 1 to p.setups do
    Option.iter Pool.shutdown !pool;
    let t0 = now_ns () in
    let fresh = Pool.create ~jobs:p.jobs in
    for _ = 1 to p.jobs do
      Pool.submit fresh ignore
    done;
    Pool.wait fresh;
    times := seconds_since t0 :: !times;
    pool := Some fresh
  done;
  (Option.get !pool, start +. median !times)

let passes pool inputs ~seconds ?count () =
  repeat ~seconds ?count
    ~wall:(fun pass -> pass.wall)
    (fun i -> run_pass pool ~first_op:(i * Array.length inputs) inputs)

(* Every operation's rows against the naive engine on a fresh parse of
   the same text, and Table 1 against the spec populations. *)
let check ~corrupt inputs passes =
  let f = failures () in
  let refs =
    Array.map
      (fun input ->
        match parse input with
        | Ok app -> Some (Analyse.reference ~corrupt config app)
        | Error e ->
            failf f "%s: reference parse failed: %s" input.spec.sp_name e;
            None)
      inputs
  in
  List.iter
    (fun pass ->
      Array.iteri
        (fun i result ->
          let name = inputs.(i).spec.sp_name in
          match (result, refs.(i)) with
          | Error e, _ -> failf f "%s: %s" name e
          | Ok _, None -> failf f "%s: no reference" name
          | Ok (row : Analyse.row), Some reference ->
              let problems =
                (if Analyse.same_row row reference then [] else [ "rows differ from the naive engine" ])
                @ Analyse.spec_mismatches inputs.(i).spec row.t1
              in
              if problems <> [] then failf f "%s: %s" name (String.concat "; " problems))
        pass.results)
    passes;
  f

let latencies_ms passes =
  List.concat_map (fun pass -> List.map (fun s -> s *. 1e3) (Array.to_list pass.latency)) passes

let run (p : params) =
  let inputs = inputs ~seed:p.seed in
  let pool, setup_s = setup p in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      ignore (passes pool inputs ~seconds:0.0 ~count:1 ());
      let budget = if p.trace then p.seconds /. 2.0 else p.seconds in
      let timed = passes pool inputs ~seconds:budget () in
      let traced =
        if not p.trace then []
        else Span.traced (fun () -> passes pool inputs ~seconds:0.0 ~count:(List.length timed) ())
      in
      let spans = Span.collect () in
      let rss = rss_peak_mb "self" in
      let throughput = median (List.map (fun pass -> float (Array.length inputs) /. pass.wall) timed) in
      let all = latencies_ms timed in
      let pass_ms = List.map (fun pass -> pass.wall *. 1e3) timed in
      let ops = Array.length inputs * List.length timed in
      let f = check ~corrupt:p.corrupt inputs (timed @ traced) in
      let e2e =
        [
          ("setup_s", setup_s);
          ("ops_per_s", throughput);
          ("op_ms_p50", percentile all 0.5);
          ("op_ms_p90", pass_p90 (List.map (fun pass -> pass.latency) timed));
          ("heavy_ms_p50", percentile pass_ms 0.5);
          ("rss_peak_mb", rss);
        ]
      in
      let metrics =
        if not p.trace then Layers.complete Layers.end_to_end e2e
        else
          let traced_all = latencies_ms traced in
          let busy =
            List.fold_left (fun acc pass -> acc +. Array.fold_left ( +. ) 0.0 pass.latency) 0.0 traced
          in
          let traced_wall = List.fold_left (fun acc pass -> acc +. pass.wall) 0.0 traced in
          Layers.complete Layers.per_layer
            (Layers.analysis ~spans ~passes:(List.length traced)
            @ [
                ("pool.busy_share", busy /. (traced_wall *. float p.jobs));
                ("trace.overhead_pct", 100.0 *. ((mean traced_all /. mean all) -. 1.0));
              ])
      in
      let detail =
        [
          metric "apps_per_s" "1/s" throughput;
          metric "app_ms_p50" "ms" (percentile all 0.5);
          metric "app_ms_p90" "ms" (percentile all 0.9);
          metric "pass_ms_p90" "ms" (percentile pass_ms 0.9);
          metric "passes" "count" (float (List.length timed));
        ]
      in
      let attempted = ops + (Array.length inputs * List.length traced) in
      ( { attempted; failed = f.count; failures = List.rev f.messages; metrics; detail },
        spans ))
