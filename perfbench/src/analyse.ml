(* One analysis operation, as the paper's evaluation runs it: extract
   the constraint graph, solve it, and compute the Table 1/2 rows.  Each
   call into a layer is a span, so a traced run attributes the
   operation's time to the layers. *)

open Gator

type row = {
  name : string;
  t1 : Metrics.table1_row;
  t2 : Metrics.table2_row;  (** [t2_seconds] zeroed: rows compare without the time column *)
}

let solve_counters graph (s : Solve.stats) =
  let naive = s.iterations * List.length (Graph.ops graph) in
  [
    ("iterations", float s.iterations);
    ("op_applications", float s.op_applications);
    ("propagations", float s.propagations);
    ("union_calls", float s.union_calls);
    ("scc_count", float s.scc_count);
    ("naive_applications", float naive);
  ]

let run config app =
  let graph =
    Span.record "extract"
      ~counters:(fun g -> [ ("edges", float (Graph.edge_count g)) ])
      (fun () -> Extract.run config app)
  in
  let stats = Span.record "solve" ~counters:(solve_counters graph) (fun () -> Solve.run config app graph) in
  let r = Analysis.make ~app ~config ~graph ~stats ~solve_seconds:0.0 in
  let t1, t2 = Span.record "metrics" (fun () -> (Metrics.table1 r, Metrics.table2 r)) in
  { name = app.Framework.App.name; t1; t2 }

(* The executable specification: the naive engine, on its own fresh
   app.  Context sensitivity takes the inlining path there, so the
   reference shares no context-keyed code with the measured path. *)
let reference ~corrupt config app =
  let r = Analysis.analyze ~config:{ config with Config.solver = Config.Naive } app in
  let t1 = Metrics.table1 r in
  let t1 = if corrupt then { t1 with t1_classes = t1.t1_classes + 1 } else t1 in
  { name = app.Framework.App.name; t1; t2 = Metrics.table2 r }

let same_row a b = a.t1 = b.t1 && { a.t2 with t2_seconds = 0.0 } = { b.t2 with t2_seconds = 0.0 }

(* Table 1 populations the generator guarantees for a spec. *)
let spec_mismatches (spec : Corpus.Spec.t) (t1 : Metrics.table1_row) =
  List.filter_map
    (fun (what, expected, actual) ->
      if expected = actual then None else Some (Printf.sprintf "%s %d <> spec %d" what actual expected))
    [
      ("classes", spec.sp_classes, t1.t1_classes);
      ("methods", spec.sp_methods, t1.t1_methods);
      ("layout ids", spec.sp_layouts, t1.t1_layout_ids);
      ("view ids", spec.sp_view_ids, t1.t1_view_ids);
      ("inflated views", spec.sp_inflated_nodes, t1.t1_views_inflated);
      ("allocated views", spec.sp_view_allocs, t1.t1_views_allocated);
      ("listeners", spec.sp_listener_allocs, t1.t1_listeners);
      ("activities", spec.sp_activities, t1.t1_activities);
      ("inflate ops", spec.sp_layouts, t1.t1_inflate_ops);
      ("findview ops", spec.sp_findview_ops, t1.t1_findview_ops);
      ("addview ops", spec.sp_addview_ops, t1.t1_addview_ops);
      ("setid ops", spec.sp_setid_ops, t1.t1_setid_ops);
      ("setlistener ops", spec.sp_setlistener_ops, t1.t1_setlistener_ops);
    ]

(* A corpus spec with its generator seed offset by the workload seed. *)
let seeded_spec ~seed name =
  match Corpus.Apps.by_name name with
  | Some spec -> { spec with Corpus.Spec.sp_seed = spec.sp_seed + seed }
  | None -> invalid_arg ("unknown corpus app " ^ name)

(* A fresh app over the same code and layout definitions: a new layout
   package and hierarchy, so no cache carries over between
   operations. *)
let fresh_app (app : Framework.App.t) =
  let package = Layouts.Package.create () in
  List.iter (Layouts.Package.add package) (Layouts.Package.raw_layouts app.package);
  Framework.App.make ~name:app.name app.program package
