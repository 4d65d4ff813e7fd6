(* Workload [context2]: sequential analyses at inline depth 2 on the
   default context-keyed path, where extraction walks clone bodies in id
   space and the solver has its largest share.  No parse and no pool:
   every operation gets a fresh app (layout package and hierarchy) built
   outside the timed span. *)

open Measure

let config = { Gator.Config.default with inline_depth = 2 }

let corpus_apps = [ "XBMC"; "Astrid"; "K9"; "FBReader" ]

let heavy_app = "XBMC"

type input = { app : Framework.App.t; spec : Corpus.Spec.t option }

let inputs ~seed =
  Array.of_list
    (List.map
       (fun name ->
         let spec = Analyse.seeded_spec ~seed name in
         { app = Corpus.Gen.generate spec; spec = Some spec })
       corpus_apps
    @ [
        {
          app = Corpus.Gen.alias_heavy_app ~name:"AliasHeavy" ~groups:8 ~sites_per_group:10 ~seed ();
          spec = None;
        };
        {
          app =
            Corpus.Gen.cyclic_app ~name:"CycleHeavy" ~chains:6 ~chain_len:160 ~two_cycles:8
              ~bridges:12 ~seed ();
          spec = None;
        };
      ])

type pass = { latency : float array; results : (Analyse.row, string) result array }

let run_pass ~first_op inputs =
  let n = Array.length inputs in
  let latency = Array.make n 0.0 and results = Array.make n (Error "not run") in
  Array.iteri
    (fun i input ->
      let app = Analyse.fresh_app input.app in
      let t = now_ns () in
      (match Span.operation ~id:(first_op + i) "op" (fun () -> Analyse.run config app) with
      | row -> results.(i) <- Ok row
      | exception e -> results.(i) <- Error (Printexc.to_string e));
      latency.(i) <- seconds_since t)
    inputs;
  { latency; results }

let pass_wall pass = Array.fold_left ( +. ) 0.0 pass.latency

let passes inputs ~seconds ?count () =
  repeat ~seconds ?count ~wall:pass_wall (fun i -> run_pass ~first_op:(i * Array.length inputs) inputs)

(* Program set-up: start the program, and build the analysis inputs of
   one pass (layout packages and class hierarchies) that the timed
   operations exclude. *)
let setup (p : params) inputs =
  program_start p.setups
  +. median
    (List.init p.setups (fun _ ->
         snd (timed (fun () -> Array.iter (fun i -> ignore (Analyse.fresh_app i.app)) inputs))))

let check ~corrupt inputs passes =
  let f = failures () in
  let refs = Array.map (fun i -> Analyse.reference ~corrupt config (Analyse.fresh_app i.app)) inputs in
  List.iter
    (fun pass ->
      Array.iteri
        (fun i result ->
          let name = inputs.(i).app.name in
          match result with
          | Error e -> failf f "%s: %s" name e
          | Ok (row : Analyse.row) ->
              let problems =
                (if Analyse.same_row row refs.(i) then [] else [ "rows differ from the naive engine" ])
                @
                match inputs.(i).spec with
                | Some spec -> Analyse.spec_mismatches spec row.t1
                | None -> []
              in
              if problems <> [] then failf f "%s: %s" name (String.concat "; " problems))
        pass.results)
    passes;
  f

let latencies inputs passes ~only =
  List.concat_map
    (fun pass -> List.filteri (fun i _ -> only inputs.(i)) (Array.to_list pass.latency))
    passes
  |> List.map (fun s -> s *. 1e3)

let run (p : params) =
  let inputs = inputs ~seed:p.seed in
  let setup_s = setup p inputs in
  ignore (passes inputs ~seconds:0.0 ~count:1 ());
  let budget = if p.trace then p.seconds /. 2.0 else p.seconds in
  let timed = passes inputs ~seconds:budget () in
  let traced =
    if not p.trace then []
    else Span.traced (fun () -> passes inputs ~seconds:0.0 ~count:(List.length timed) ())
  in
  let spans = Span.collect () in
  let rss = rss_peak_mb "self" in
  let throughput = median (List.map (fun pass -> float (Array.length inputs) /. pass_wall pass) timed) in
  let all = latencies inputs timed ~only:(fun _ -> true) in
  let heavy = latencies inputs timed ~only:(fun i -> i.app.name = heavy_app) in
  let ops = Array.length inputs * List.length timed in
  let f = check ~corrupt:p.corrupt inputs (timed @ traced) in
  let metrics =
    if not p.trace then
      Layers.complete Layers.end_to_end
        [
          ("setup_s", setup_s);
          ("ops_per_s", throughput);
          ("op_ms_p50", percentile all 0.5);
          ("op_ms_p90", pass_p90 (List.map (fun pass -> pass.latency) timed));
          ("heavy_ms_p50", percentile heavy 0.5);
          ("rss_peak_mb", rss);
        ]
    else
      let traced_all = latencies inputs traced ~only:(fun _ -> true) in
      Layers.complete Layers.per_layer
        (Layers.analysis ~spans ~passes:(List.length traced)
        @ [ ("trace.overhead_pct", 100.0 *. ((mean traced_all /. mean all) -. 1.0)) ])
  in
  let detail =
    [
      metric "apps_per_s" "1/s" throughput;
      metric "app_ms_p50" "ms" (percentile all 0.5);
      metric "app_ms_p90" "ms" (percentile all 0.9);
      metric "xbmc_ms_p90" "ms" (percentile heavy 0.9);
      metric "passes" "count" (float (List.length timed));
    ]
  in
  let attempted = ops + (Array.length inputs * List.length traced) in
  ({ attempted; failed = f.count; failures = List.rev f.messages; metrics; detail }, spans)
