(* The metric catalogues of BENCHMARK.json and the per-layer figures a
   traced run derives from its spans.  Every run reports every metric
   of its mode; a layer a workload never calls reports 0. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_ms_p50", "ms");
    ("op_ms_p90", "ms");
    ("heavy_ms_p50", "ms");
    ("rss_peak_mb", "MiB");
  ]

let per_layer =
  [
    ("op.wall_ms", "ms");
    ("op.unattributed_ms", "ms");
    ("trace.overhead_pct", "%");
    ("parse.ms", "ms");
    ("parse.alloc_mw", "Mword");
    ("extract.ms", "ms");
    ("extract.alloc_mw", "Mword");
    ("extract.edges", "count");
    ("solve.ms", "ms");
    ("solve.alloc_mw", "Mword");
    ("solve.iterations", "count");
    ("solve.op_applications", "count");
    ("solve.propagations", "count");
    ("solve.union_calls", "count");
    ("solve.scc_count", "count");
    ("solve.ops_vs_naive", "ratio");
    ("metrics.ms", "ms");
    ("pool.busy_share", "ratio");
    ("rpc.query_us", "us");
    ("dispatch.query_us", "us");
    ("rpc.patch_ms", "ms");
    ("dispatch.patch_ms", "ms");
    ("query.us", "us");
    ("query.expanded", "count");
    ("query.memo_hit_ratio", "ratio");
    ("query.budget_fallbacks", "count");
    ("patch.apply_ms", "ms");
    ("incremental.ms", "ms");
    ("incremental.dirty_comps", "count");
    ("incremental.reused_comps", "count");
    ("incremental.warm_ratio", "ratio");
    ("query.create_ms", "ms");
    ("snapshot.save_ms", "ms");
    ("snapshot.bytes", "count");
  ]

let complete catalogue found =
  List.map
    (fun (name, unit_) ->
      Measure.metric name unit_ (Option.value ~default:0.0 (List.assoc_opt name found)))
    catalogue

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* A per-operation figure of each named span: [field] of its self
   totals (ns or words) divided by [scale] and by the operation count. *)
let per_op ~spans ~ops ~scale field names =
  let self = Span.self_times spans in
  List.map
    (fun (span_name, metric) ->
      ( metric,
        match Hashtbl.find_opt self span_name with
        | None -> 0.0
        | Some s -> field s /. scale /. float ops ))
    names

let self_ns (s : Span.self) = s.self_ns

(* Wall time of the operations and the share no child span explains:
   by construction, the operations' layer self times plus this remainder
   sum to their wall time. *)
let op_accounting ~spans ~op_names =
  let self = Span.self_times spans in
  let ops, total, own =
    List.fold_left
      (fun (n, total, own) name ->
        match Hashtbl.find_opt self name with
        | None -> (n, total, own)
        | Some s -> (n + s.Span.calls, total +. s.total_ns, own +. s.self_ns))
      (0, 0.0, 0.0) op_names
  in
  let per_op x = if ops = 0 then 0.0 else x /. 1e6 /. float ops in
  (ops, [ ("op.wall_ms", per_op total); ("op.unattributed_ms", per_op own) ])

(* Layer figures of the analysis workloads.  Work counters are totals
   per pass (every pass does identical work), so they are exact
   counts. *)
let analysis ~spans ~passes =
  let ops, accounting = op_accounting ~spans ~op_names:[ "op" ] in
  let count span key = Span.counter_sum spans span key /. float passes in
  accounting
  @ per_op ~spans ~ops ~scale:1e6 self_ns
      [ ("parse", "parse.ms"); ("extract", "extract.ms"); ("solve", "solve.ms"); ("metrics", "metrics.ms") ]
  @ per_op ~spans ~ops ~scale:1e6
      (fun s -> s.Span.self_words)
      [ ("parse", "parse.alloc_mw"); ("extract", "extract.alloc_mw"); ("solve", "solve.alloc_mw") ]
  @ [
      ("extract.edges", count "extract" "edges");
      ("solve.iterations", count "solve" "iterations");
      ("solve.op_applications", count "solve" "op_applications");
      ("solve.propagations", count "solve" "propagations");
      ("solve.union_calls", count "solve" "union_calls");
      ("solve.scc_count", count "solve" "scc_count");
      ( "solve.ops_vs_naive",
        ratio (count "solve" "op_applications") (count "solve" "naive_applications") );
    ]

(* Work counters the exact-count check compares between two traced
   runs of one seed. *)
let exact_counters =
  [
    "extract.edges";
    "solve.iterations";
    "solve.op_applications";
    "query.expanded";
    "incremental.dirty_comps";
    "snapshot.bytes";
  ]
