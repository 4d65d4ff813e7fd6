open Gator

let app_of ?(layouts = []) code =
  match Framework.App.of_source ~name:"T" ~code ~layouts with
  | Ok app -> app
  | Error e -> Alcotest.failf "app_of: %s" e

let graph_of ?layouts code = Extract.run Config.default (app_of ?layouts code)

let kinds graph =
  List.map (fun (op : Graph.op) -> Framework.Api.kind_label op.site.o_kind) (Graph.ops graph)

let test_op_recognition () =
  let g =
    graph_of
      {|class A extends Activity {
          method onCreate(): void {
            l = R.layout.main;
            this.setContentView(l);
            a = R.id.x;
            v = this.findViewById(a);
            w = new Button();
            w.setId(a);
            v.addView(w);
            j = new L();
            w.setOnClickListener(j);
          } }
        class L implements OnClickListener { method onClick(v: View): void { } }|}
  in
  Alcotest.check (Alcotest.list Alcotest.string) "op kinds in order"
    [ "SetContent"; "FindView"; "SetId"; "AddView"; "SetListener" ]
    (kinds g)

let test_allocs_and_seeds () =
  let g = graph_of "class A { method m(): void { x = new Button(); y = new A(); } }" in
  match Graph.allocs g with
  | [ b; a ] ->
      Alcotest.check Alcotest.string "button" "Button" b.a_cls;
      Alcotest.check Alcotest.string "plain" "A" a.a_cls;
      Alcotest.check Alcotest.int "sites distinct" 1 a.a_site.s_stmt
  | _ -> Alcotest.fail "expected two allocation sites"

let test_app_override_shadows_api () =
  (* Figure 1: an application-defined findViewById-like helper on a
     known receiver type consumes the call; no operation node is
     created for it. *)
  let g =
    graph_of
      {|class A extends Activity {
          method findViewById(a: int): View { v = null; return v; }
          method onCreate(): void { a = R.id.x; v = this.findViewById(a); } }|}
  in
  Alcotest.check (Alcotest.list Alcotest.string) "no FindView op" [] (kinds g)

let test_partial_override_keeps_op () =
  (* The static type has a subclass without the override, so the
     platform can still be reached: both the call edge and the op are
     needed. *)
  let g =
    graph_of
      {|class A extends Activity {
          method onCreate(): void { b = new B(); a = R.id.x; v = b.use(a); } }
        class B extends ViewGroup { method use(a: int): View { w = this.findViewById(a); return w; } }|}
  in
  Alcotest.check (Alcotest.list Alcotest.string) "op inside B.use" [ "FindView" ] (kinds g)

let test_unknown_receiver_gets_both () =
  (* x = y (untyped y): call may hit the app helper or the platform;
     the extraction must model both. *)
  let code =
    {|class A extends Activity {
        field f: int;
        method helper(a: int): View { v = null; return v; }
        method onCreate(): void {
          u = this.mystery();
          a = R.id.x;
          v = u.findViewById(a);
        } }|}
  in
  let g = graph_of code in
  Alcotest.check (Alcotest.list Alcotest.string) "platform op kept" [ "FindView" ] (kinds g)

(* The initial values extraction seeds at a location. *)
let seeded_at g node =
  List.fold_left
    (fun acc (n, vs) -> if Node.equal n node then Graph.VS.union vs acc else acc)
    Graph.VS.empty (Graph.seeds g)

let test_callback_seeding () =
  let g =
    graph_of
      {|class A extends Activity { method onCreate(): void { } method onResume(): void { } }|}
  in
  let this_of name =
    seeded_at g
      (Node.N_var ({ Node.mid_cls = "A"; mid_name = name; mid_arity = 0 }, Jir.Ast.this_var))
  in
  Alcotest.check Alcotest.bool "onCreate seeded" true
    (Graph.VS.mem (Node.V_act "A") (this_of "onCreate"));
  Alcotest.check Alcotest.bool "onResume seeded" true
    (Graph.VS.mem (Node.V_act "A") (this_of "onResume"));
  Alcotest.check Alcotest.bool "random method not seeded" true
    (Graph.VS.is_empty (this_of "helper"))

let test_inherited_callback_seeding () =
  let g =
    graph_of
      {|class Base extends Activity { method onCreate(): void { } }
        class Derived extends Base { }|}
  in
  let s =
    seeded_at g
      (Node.N_var ({ Node.mid_cls = "Base"; mid_name = "onCreate"; mid_arity = 0 }, Jir.Ast.this_var))
  in
  Alcotest.check Alcotest.bool "both activities reach the shared onCreate" true
    (Graph.VS.mem (Node.V_act "Base") s && Graph.VS.mem (Node.V_act "Derived") s)

let test_call_edges () =
  let g =
    graph_of
      {|class A { method callee(p: View): View { return p; }
                 method caller(v: View): void { w = this.callee(v); } }|}
  in
  let caller = { Node.mid_cls = "A"; mid_name = "caller"; mid_arity = 1 } in
  let callee = { Node.mid_cls = "A"; mid_name = "callee"; mid_arity = 1 } in
  let succs_of v = List.map snd (Graph.succs g v) in
  Alcotest.check Alcotest.bool "arg edge" true
    (List.mem (Node.N_var (callee, "p")) (succs_of (Node.N_var (caller, "v"))));
  Alcotest.check Alcotest.bool "this edge" true
    (List.mem (Node.N_var (callee, Jir.Ast.this_var)) (succs_of (Node.N_var (caller, Jir.Ast.this_var))));
  Alcotest.check Alcotest.bool "return edge" true
    (List.mem (Node.N_var (caller, "w")) (succs_of (Node.N_ret callee)))

let test_field_edges () =
  let g = graph_of "class A { field f: View; method m(v: View): void { this.f = v; w = this.f; } }" in
  let m = { Node.mid_cls = "A"; mid_name = "m"; mid_arity = 1 } in
  Alcotest.check Alcotest.bool "write edge" true
    (List.mem (Node.N_field "f") (List.map snd (Graph.succs g (Node.N_var (m, "v")))));
  Alcotest.check Alcotest.bool "read edge" true
    (List.mem (Node.N_var (m, "w")) (List.map snd (Graph.succs g (Node.N_field "f"))))

let test_cast_edges_config () =
  let code = "class A { method m(v: View): void { w = (Button) v; } }" in
  let app = app_of code in
  let g_filtering = Extract.run Config.default app in
  let g_plain = Extract.run { Config.default with cast_filtering = false } app in
  let m = { Node.mid_cls = "A"; mid_name = "m"; mid_arity = 1 } in
  let kinds g = List.map fst (Graph.succs g (Node.N_var (m, "v"))) in
  Alcotest.check Alcotest.bool "cast edge kind" true (kinds g_filtering = [ Graph.E_cast "Button" ]);
  Alcotest.check Alcotest.bool "plain edge kind" true (kinds g_plain = [ Graph.E_direct ])

let test_resource_constants () =
  let app =
    app_of ~layouts:[ ("main", {|<LinearLayout android:id="@+id/root" />|}) ]
      "class A extends Activity { method onCreate(): void { x = R.layout.main; y = R.id.root; } }"
  in
  let g = Extract.run Config.default app in
  let m = { Node.mid_cls = "A"; mid_name = "onCreate"; mid_arity = 0 } in
  let seed_values v =
    List.assoc_opt (Node.N_var (m, v)) (Graph.seeds g) |> Option.value ~default:Graph.VS.empty
  in
  Alcotest.check Alcotest.bool "layout id seeded" true
    (Graph.VS.exists (function Node.V_layout_id _ -> true | _ -> false) (seed_values "x"));
  Alcotest.check Alcotest.bool "view id seeded" true
    (Graph.VS.exists (function Node.V_view_id _ -> true | _ -> false) (seed_values "y"))

let test_int_constant_as_resource () =
  (* An integer literal equal to a registered resource constant is
     treated as that id (compiled-in constants). *)
  let layout = ("main", "<LinearLayout />") in
  let app =
    app_of ~layouts:[ layout ]
      (Printf.sprintf
         "class A extends Activity { method onCreate(): void { x = %d; this.setContentView(x); } }"
         Layouts.Resource.layout_base)
  in
  let g = Extract.run Config.default app in
  let m = { Node.mid_cls = "A"; mid_name = "onCreate"; mid_arity = 0 } in
  let seeds = List.assoc_opt (Node.N_var (m, "x")) (Graph.seeds g) in
  Alcotest.check Alcotest.bool "literal recognized as layout id" true
    (match seeds with
    | Some vs -> Graph.VS.mem (Node.V_layout_id Layouts.Resource.layout_base) vs
    | None -> false)

let suite =
  [
    Alcotest.test_case "op recognition" `Quick test_op_recognition;
    Alcotest.test_case "allocation sites" `Quick test_allocs_and_seeds;
    Alcotest.test_case "app override shadows API" `Quick test_app_override_shadows_api;
    Alcotest.test_case "partial override keeps op" `Quick test_partial_override_keeps_op;
    Alcotest.test_case "unknown receiver keeps op" `Quick test_unknown_receiver_gets_both;
    Alcotest.test_case "activity callback seeding" `Quick test_callback_seeding;
    Alcotest.test_case "inherited callback seeding" `Quick test_inherited_callback_seeding;
    Alcotest.test_case "call edges" `Quick test_call_edges;
    Alcotest.test_case "field edges (field-based)" `Quick test_field_edges;
    Alcotest.test_case "cast edges honor config" `Quick test_cast_edges_config;
    Alcotest.test_case "resource constant seeds" `Quick test_resource_constants;
    Alcotest.test_case "integer literal as resource id" `Quick test_int_constant_as_resource;
  ]
