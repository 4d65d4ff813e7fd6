open Gator

let mid name = { Node.mid_cls = "C"; mid_name = name; mid_arity = 0 }

let site ?(stmt = 0) name = { Node.s_in = mid name; s_stmt = stmt }

let var name v = Node.N_var (mid name, v)

let infl ?(path = []) ?(cls = "View") ?vid name =
  Node.V_infl { Node.v_site = site name; v_layout = "l"; v_path = path; v_cls = cls; v_vid = vid }

let test_edges_dedup () =
  let g = Graph.create () in
  let a = var "m" "a" and b = var "m" "b" in
  Graph.add_edge g a b;
  Graph.add_edge g a b;
  Graph.add_edge g ~kind:(Graph.E_cast "Button") a b;
  Alcotest.check Alcotest.int "two distinct edges" 2 (Graph.edge_count g);
  Alcotest.check Alcotest.int "succs" 2 (List.length (Graph.succs g a))

(* ------------------------------------------------------------------ *)
(* The solution store, read back from solved graphs.  Each check runs
   on both engines: the naive spec encodes its private tables into the
   graph's rows once, the interned engine hands its rows over, and the
   same decoders must read both. *)

let solved ?(layouts = []) code =
  match Framework.App.of_source ~name:"G" ~code ~layouts with
  | Error e -> Alcotest.failf "of_source: %s" e
  | Ok app ->
      List.map
        (fun solver ->
          let r = Analysis.analyze ~config:{ Config.default with solver } app in
          (Config.solver_name solver, r))
        [ Config.Naive; Config.Interned ]

let on_create_var v = Analysis.var ~cls:"A" ~meth:"onCreate" ~arity:0 v

(* The one view at [v] in [A.onCreate]. *)
let view_at engine (r : Analysis.t) v =
  match Graph.views_of r.graph (on_create_var v) with
  | [ w ] -> w
  | ws -> Alcotest.failf "%s: expected one view at %s, got %d" engine v (List.length ws)

let test_value_held_once () =
  List.iter
    (fun (engine, (r : Analysis.t)) ->
      let z = on_create_var "z" in
      Alcotest.check Alcotest.int (engine ^ ": set size") 1
        (Graph.VS.cardinal (Graph.set_of r.graph z));
      Alcotest.check Alcotest.int (engine ^ ": views") 1 (List.length (Graph.views_of r.graph z)))
    (solved
       {|class A extends Activity {
           method onCreate(): void { b = new Button(); x = b; y = b; z = x; z = y; } }|})

let test_children_relation () =
  List.iter
    (fun (engine, r) ->
      let p = view_at engine r "p" and c1 = view_at engine r "c1" in
      Alcotest.check Alcotest.int (engine ^ ": children") 2
        (Graph.View_set.cardinal (Graph.children_of r.Analysis.graph p));
      Alcotest.check Alcotest.bool (engine ^ ": parents inverse") true
        (Graph.View_set.mem p (Graph.parents_of r.graph c1)))
    (solved
       {|class A extends Activity {
           method onCreate(): void {
             p = new LinearLayout(); c1 = new Button(); c2 = new TextView();
             p.addView(c1); p.addView(c2); p.addView(c1);
           } }|})

let test_descendants () =
  List.iter
    (fun (engine, r) ->
      let a = view_at engine r "a" and c = view_at engine r "c" in
      let g = r.Analysis.graph in
      Alcotest.check Alcotest.int (engine ^ ": inclusive") 3
        (Graph.View_set.cardinal (Graph.descendants g ~include_self:true a));
      Alcotest.check Alcotest.int (engine ^ ": strict") 2
        (Graph.View_set.cardinal (Graph.descendants g ~include_self:false a));
      Alcotest.check Alcotest.bool (engine ^ ": transitive") true
        (Graph.View_set.mem c (Graph.descendants g ~include_self:false a)))
    (solved
       {|class A extends Activity {
           method onCreate(): void {
             a = new LinearLayout(); b = new FrameLayout(); c = new Button();
             a.addView(b); b.addView(c);
           } }|})

let test_descendants_cycle_safe () =
  (* The abstract parent-child relation can be cyclic (unlike the
     concrete heap); the walk must still terminate. *)
  List.iter
    (fun (engine, r) ->
      let a = view_at engine r "a" in
      Alcotest.check Alcotest.int (engine ^ ": cycle bounded") 2
        (Graph.View_set.cardinal (Graph.descendants r.Analysis.graph ~include_self:true a)))
    (solved
       {|class A extends Activity {
           method onCreate(): void {
             a = new LinearLayout(); b = new FrameLayout(); a.addView(b); b.addView(a);
           } }|})

let ids_layout = ("main", {|<LinearLayout android:id="@+id/x"><Button android:id="@+id/y" /></LinearLayout>|})

let test_view_ids () =
  List.iter
    (fun (engine, (r : Analysis.t)) ->
      let id name =
        Option.get
          (Layouts.Resource.find_view_id (Layouts.Package.resources r.app.Framework.App.package) name)
      in
      let ids = Graph.ids_of_view r.graph (view_at engine r "v") in
      Alcotest.check Alcotest.bool (engine ^ ": both ids") true
        (Graph.Int_set.mem (id "x") ids && Graph.Int_set.mem (id "y") ids))
    (solved ~layouts:[ ids_layout ]
       {|class A extends Activity {
           method onCreate(): void { v = new Button(); i = R.id.x; j = R.id.y; v.setId(i); v.setId(j); } }|})

let test_holder_roots () =
  List.iter
    (fun (engine, (r : Analysis.t)) ->
      Alcotest.check Alcotest.int (engine ^ ": root") 1
        (Graph.View_set.cardinal (Graph.roots_of_holder r.graph (Node.H_act "A")));
      Alcotest.check Alcotest.int (engine ^ ": holders") 1 (List.length (Graph.holders r.graph)))
    (solved ~layouts:[ ids_layout ]
       {|class A extends Activity {
           method onCreate(): void { l = R.layout.main; this.setContentView(l); } }|})

let test_listeners_relation () =
  List.iter
    (fun (engine, r) ->
      let g = r.Analysis.graph in
      Alcotest.check Alcotest.int (engine ^ ": two registrations") 2
        (Graph.Listener_set.cardinal (Graph.listeners_of_view g (view_at engine r "b")));
      Alcotest.check Alcotest.int (engine ^ ": views with listeners") 1
        (List.length (Graph.views_with_listeners g)))
    (solved
       {|class A extends Activity {
           method onCreate(): void {
             b = new Button(); j = new L(); b.setOnClickListener(j); b.setOnKeyListener(j);
           } }
         class L implements OnClickListener, OnKeyListener { }|})

let test_seeds_survive_reset () =
  List.iter
    (fun (engine, (r : Analysis.t)) ->
      let n = on_create_var "b" in
      Alcotest.check Alcotest.int (engine ^ ": solved") 1 (Graph.VS.cardinal (Graph.set_of r.graph n));
      Graph.reset_sets r.graph;
      Alcotest.check Alcotest.int (engine ^ ": sets cleared") 0
        (Graph.VS.cardinal (Graph.set_of r.graph n));
      Alcotest.check Alcotest.bool (engine ^ ": seed kept") true
        (List.exists (fun (m, _) -> Node.equal m n) (Graph.seeds r.graph)))
    (solved {|class A extends Activity { method onCreate(): void { b = new Button(); } }|})

let test_inflation_memo () =
  let g = Graph.create () in
  let s = site "a" in
  Alcotest.check Alcotest.bool "absent" true (Graph.find_inflation g ~site:s ~layout:"l" = None);
  Graph.record_inflation g ~site:s ~layout:"l" [ infl "a" ];
  Alcotest.check Alcotest.bool "present" true (Graph.find_inflation g ~site:s ~layout:"l" <> None);
  Alcotest.check Alcotest.int "inflated views" 1 (List.length (Graph.inflated_views g))

let test_ops_order () =
  let g = Graph.create () in
  let o1 = Graph.fresh_op g ~kind:Framework.Api.Find_view ~site:(site ~stmt:0 "m") ~recv:(var "m" "x") ~args:[] ~out:None in
  let o2 = Graph.fresh_op g ~kind:Framework.Api.Add_view ~site:(site ~stmt:1 "m") ~recv:(var "m" "y") ~args:[] ~out:None in
  Alcotest.check Alcotest.bool "creation order" true (Graph.ops g = [ o1; o2 ])

let test_locations () =
  let g = Graph.create () in
  Graph.add_edge g (var "m" "a") (var "m" "b");
  Graph.seed g (var "m" "c") (Node.V_act "A");
  Alcotest.check Alcotest.int "locations" 3 (List.length (Graph.locations g))

let test_dot_output () =
  let g = Graph.create () in
  Graph.add_edge g (var "m" "a") (var "m" "b");
  let dot = Fmt.str "%a" Graph.pp_dot g in
  Alcotest.check Alcotest.bool "digraph wrapper" true
    (String.length dot > 20
    && String.sub dot 0 7 = "digraph"
    && String.contains dot '}');
  (* relationship edges come from the solution rows *)
  List.iter
    (fun (engine, (r : Analysis.t)) ->
      let dot = Fmt.str "%a" Graph.pp_dot r.graph in
      let has sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length dot && (String.sub dot i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.check Alcotest.bool (engine ^ ": child edge") true (has "label=child]");
      Alcotest.check Alcotest.bool (engine ^ ": listener edge") true
        (has "label=\"listener:OnClickListener\"]"))
    (solved
       {|class A extends Activity {
           method onCreate(): void {
             p = new LinearLayout(); b = new Button(); p.addView(b); j = new L(); b.setOnClickListener(j);
           } }
         class L implements OnClickListener { }|})

(* ------------------------------------------------------------------ *)
(* Frozen flow CSR and its SCC condensation *)

let test_frozen_flow_condensation () =
  let g = Graph.create () in
  let a = var "m" "a" and b = var "m" "b" and c = var "m" "c" and d = var "m" "d" in
  (* a -> b -> c -> a is a direct 3-cycle; d hangs off it through a
     cast edge, which must stay OUT of the condensation *)
  Graph.add_edge g a b;
  Graph.add_edge g b c;
  Graph.add_edge g c a;
  Graph.add_edge g ~kind:(Graph.E_cast "Button") c d;
  let fc = Graph.frozen_flow g in
  let id n = Graph.node_id g n in
  Alcotest.check Alcotest.int "snapshot covers the four nodes" 4 fc.Graph.fc_nodes;
  Alcotest.check Alcotest.int "largest scc is the 3-cycle" 3 fc.Graph.fc_largest_scc;
  Alcotest.check Alcotest.int "two components" 2 fc.Graph.fc_scc_count;
  let ra = fc.Graph.fc_rep.(id a) in
  Alcotest.check Alcotest.int "b joins a's component" ra fc.Graph.fc_rep.(id b);
  Alcotest.check Alcotest.int "c joins a's component" ra fc.Graph.fc_rep.(id c);
  Alcotest.check Alcotest.int "rep is the smallest member" (min (id a) (min (id b) (id c))) ra;
  Alcotest.check Alcotest.int "d is its own singleton" (id d) fc.Graph.fc_rep.(id d);
  (* condensed edges: exactly the cast edge survives — intra-component
     direct edges are subsumed by the component's shared set *)
  let condensed = ref [] in
  for r = 0 to fc.Graph.fc_nodes - 1 do
    for e = fc.Graph.fc_crow.(r) to fc.Graph.fc_crow.(r + 1) - 1 do
      condensed := (r, fc.Graph.fc_cdst.(e), fc.Graph.fc_ckind.(e)) :: !condensed
    done
  done;
  match !condensed with
  | [ (src, dst, k) ] ->
      Alcotest.check Alcotest.int "cast edge leaves the cycle rep" ra src;
      Alcotest.check Alcotest.int "cast edge reaches d" (id d) dst;
      Alcotest.check Alcotest.string "cast symbol kept" "Button" fc.Graph.fc_cast_names.(k)
  | es -> Alcotest.failf "expected exactly the cast edge, got %d condensed edges" (List.length es)

(* Regression: the [frozen_flow] memo is keyed on the edge count, so
   interner growth without new edges must serve the old snapshot (ids
   at or above [fc_nodes] are singleton components by construction),
   while adding an edge must rebuild over the grown node pool. *)
let test_frozen_flow_memo_invalidation () =
  let g = Graph.create () in
  let a = var "m" "a" and b = var "m" "b" in
  Graph.add_edge g a b;
  let fc0 = Graph.frozen_flow g in
  Alcotest.check Alcotest.int "snapshot covers both nodes" 2 fc0.Graph.fc_nodes;
  (* grow the interner without touching edges: memo hit, same snapshot *)
  let late = var "m" "late" in
  let late_id = Graph.node_id g late in
  Alcotest.check Alcotest.bool "late id falls outside the snapshot" true
    (late_id >= fc0.Graph.fc_nodes);
  let fc1 = Graph.frozen_flow g in
  Alcotest.check Alcotest.bool "memo hit serves the same snapshot" true (fc0 == fc1);
  (* a new edge invalidates the memo: the rebuild covers the late node *)
  Graph.add_edge g late a;
  let fc2 = Graph.frozen_flow g in
  Alcotest.check Alcotest.bool "edge growth rebuilds" true (fc1 != fc2);
  Alcotest.check Alcotest.int "rebuild covers the late node" 3 fc2.Graph.fc_nodes;
  Alcotest.check Alcotest.int "late node is now a tracked singleton" late_id
    fc2.Graph.fc_rep.(late_id)

let suite =
  [
    Alcotest.test_case "points-to sets hold a value once" `Quick test_value_held_once;
    Alcotest.test_case "edge dedup by kind" `Quick test_edges_dedup;
    Alcotest.test_case "reset keeps seeds" `Quick test_seeds_survive_reset;
    Alcotest.test_case "children relation" `Quick test_children_relation;
    Alcotest.test_case "descendants closure" `Quick test_descendants;
    Alcotest.test_case "descendants on cyclic relation" `Quick test_descendants_cycle_safe;
    Alcotest.test_case "view ids" `Quick test_view_ids;
    Alcotest.test_case "holder roots" `Quick test_holder_roots;
    Alcotest.test_case "listener registrations" `Quick test_listeners_relation;
    Alcotest.test_case "inflation memo" `Quick test_inflation_memo;
    Alcotest.test_case "op creation order" `Quick test_ops_order;
    Alcotest.test_case "locations" `Quick test_locations;
    Alcotest.test_case "dot output" `Quick test_dot_output;
    Alcotest.test_case "frozen flow: scc condensation" `Quick test_frozen_flow_condensation;
    Alcotest.test_case "frozen flow: memo invalidation" `Quick
      test_frozen_flow_memo_invalidation;
  ]
