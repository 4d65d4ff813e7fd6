let var mid name = Node.N_var (mid, name)

(* An integer constant that happens to be a registered resource id is
   treated as that id, modeling constant propagation of the inlined
   [R] fields real compilers perform. *)
let value_of_int resources n =
  if Layouts.Resource.is_layout_id n && Layouts.Resource.layout_name resources n <> None then
    Some (Node.V_layout_id n)
  else if Layouts.Resource.is_view_id n && Layouts.Resource.view_name resources n <> None then
    Some (Node.V_view_id n)
  else None

type ctx = {
  depth : int;  (** current inlining depth *)
  rename : string -> string;  (** variable renaming for the current clone *)
  ret_target : Node.t;  (** where [return x] flows *)
  stack : Node.mid list;  (** methods on the inline chain, for cycle avoidance *)
  clones : int ref;
      (** clone ids unique within one extraction run; per-run (not
          global) so concurrent extractions on separate domains cannot
          interleave names *)
}

let top_ctx ~clones mid =
  { depth = 0; rename = Fun.id; ret_target = Node.N_ret mid; stack = [ mid ]; clones }

(* CHA facts at a call site.  The hierarchy-dependent half — dispatch
   targets and platform reachability — is a pure function of (receiver
   type, name, arity) for a fixed app, so it is memoised per extraction
   run ([cha]): the inliner re-walks a callee body once per clone and
   hits the same sites every time.  Only the depth/stack-dependent
   guard tail stays live. *)
type cha_cache = (string option * string * int, (string * Jir.Ast.meth) list * bool) Hashtbl.t

(* Per-run caches: CHA facts per call signature, and typing
   environments per method (the inliner would otherwise re-derive the
   callee env once per clone). *)
type ex_memo = {
  cha : cha_cache;
  envs : (Node.mid, Jir.Typing.env) Hashtbl.t;
}

let fresh_memo () = { cha = Hashtbl.create 256; envs = Hashtbl.create 256 }

let typing_env_memo app memo ~owner (m : Jir.Ast.meth) =
  let mid = Node.mid_of_meth owner m in
  match Hashtbl.find_opt memo.envs mid with
  | Some env -> env
  | None ->
      let env = Framework.App.typing_env app ~owner m in
      Hashtbl.add memo.envs mid env;
      env

let call_info config hierarchy ~memo env ~depth ~stack recv name arity =
  let recv_ty = Jir.Typing.class_of env recv in
  let app_targets, may_reach_platform =
    let ck = (recv_ty, name, arity) in
    match Hashtbl.find_opt memo.cha ck with
    | Some facts -> facts
    | None ->
        let key = { Jir.Ast.mk_name = name; mk_arity = arity } in
        let app_targets = Jir.Hierarchy.cha_targets hierarchy ~recv_ty key in
        (* A call can reach the platform when the receiver's type is
           unknown, or when some concrete class compatible with it has
           no application definition of the method (dispatch then
           falls through to platform code). *)
        let may_reach_platform =
          match recv_ty with
          | None -> true
          | Some ty ->
              (not (Jir.Hierarchy.mem hierarchy ty))
              || List.exists
                   (fun sub ->
                     Jir.Hierarchy.kind hierarchy sub = Some `Class
                     && Jir.Hierarchy.resolve hierarchy sub key = None)
                   (Jir.Hierarchy.subtypes hierarchy ty)
        in
        Hashtbl.add memo.cha ck (app_targets, may_reach_platform);
        (app_targets, may_reach_platform)
  in
  let inlinable =
    config.Config.inline_depth > 0
    && depth < config.Config.inline_depth
    && (not may_reach_platform)
    &&
    match app_targets with
    | [ (owner, target) ] ->
        List.length target.m_body <= config.Config.inline_body_limit
        && not (List.mem (Node.mid_of_meth owner target) stack)
    | _ -> false
  in
  (app_targets, may_reach_platform, inlinable)

let rec extract_stmt config (app : Framework.App.t) graph ~memo ~ctx mid env ~index stmt =
  let hierarchy = app.Framework.App.hierarchy in
  let resources = Layouts.Package.resources app.package in
  let is_view cls = Framework.Views.is_view_class hierarchy cls in
  let site = { Node.s_in = mid; s_stmt = index } in
  let v name = var mid (ctx.rename name) in
  match stmt with
  | Jir.Ast.New (x, cls) ->
      let alloc = Graph.fresh_alloc graph ~cls ~site in
      let value = if is_view cls then Node.V_view (Node.V_alloc alloc) else Node.V_obj alloc in
      Graph.seed graph (v x) value
  | Jir.Ast.Copy (x, y) -> Graph.add_edge graph (v y) (v x)
  | Jir.Ast.Read_field (x, _, f) -> Graph.add_edge graph (Node.N_field f) (v x)
  | Jir.Ast.Write_field (_, f, y) -> Graph.add_edge graph (v y) (Node.N_field f)
  | Jir.Ast.Read_layout_id (x, name) ->
      Graph.seed graph (v x) (Node.V_layout_id (Layouts.Resource.layout_id resources name))
  | Jir.Ast.Read_view_id (x, name) ->
      Graph.seed graph (v x) (Node.V_view_id (Layouts.Resource.view_id resources name))
  | Jir.Ast.Read_layout_top x -> Graph.seed graph (v x) Node.V_layout_top
  | Jir.Ast.Read_view_top x -> Graph.seed graph (v x) Node.V_view_id_top
  | Jir.Ast.Const_int (x, n) -> (
      match value_of_int resources n with
      | Some value -> Graph.seed graph (v x) value
      | None -> ())
  | Jir.Ast.Const_null _ -> ()
  | Jir.Ast.Cast (x, cls, y) ->
      let kind = if config.Config.cast_filtering then Graph.E_cast cls else Graph.E_direct in
      Graph.add_edge graph ~kind (v y) (v x)
  | Jir.Ast.Return (Some x) -> Graph.add_edge graph (v x) ctx.ret_target
  | Jir.Ast.Return None -> ()
  | Jir.Ast.Invoke (lhs, recv, name, args) -> (
      let arity = List.length args in
      (* Inlining-based context sensitivity: clone a small, uniquely
         resolved callee instead of sharing its locals across all call
         sites.  Abstraction names (allocation/op/inflation sites) stay
         structural, so clones of the same site denote the same
         objects; only the local value flow is separated. *)
      let app_targets, may_reach_platform, inlinable =
        call_info config hierarchy ~memo env ~depth:ctx.depth ~stack:ctx.stack recv name arity
      in
      match (inlinable, app_targets) with
      | true, [ (owner, target) ] ->
          let tmid = Node.mid_of_meth owner target in
          incr ctx.clones;
          let clone = !(ctx.clones) in
          let rename' name = Node.clone_var name clone in
          Graph.add_edge graph (v recv) (var tmid (rename' Jir.Ast.this_var));
          List.iter2
            (fun arg (param, _) -> Graph.add_edge graph (v arg) (var tmid (rename' param)))
            args target.m_params;
          let ret_target =
            match lhs with
            | Some z ->
                let ret_var = var tmid (rename' "$ret") in
                Graph.add_edge graph ret_var (v z);
                ret_var
            | None -> var tmid (rename' "$ret")
          in
          let ctx' =
            { ctx with depth = ctx.depth + 1; rename = rename'; ret_target; stack = tmid :: ctx.stack }
          in
          let env' = typing_env_memo app memo ~owner target in
          List.iteri
            (fun index stmt ->
              extract_stmt config app graph ~memo ~ctx:ctx' tmid env' ~index stmt)
            target.m_body
      | _ ->
          List.iter
            (fun (owner, (target : Jir.Ast.meth)) ->
              let tmid = Node.mid_of_meth owner target in
              Graph.add_edge graph (v recv) (var tmid Jir.Ast.this_var);
              List.iter2
                (fun arg (param, _) -> Graph.add_edge graph (v arg) (var tmid param))
                args target.m_params;
              Option.iter (fun z -> Graph.add_edge graph (Node.N_ret tmid) (v z)) lhs)
            app_targets;
          if may_reach_platform then (
            match Framework.Api.classify ~name ~arity with
            | Some kind ->
                ignore
                  (Graph.fresh_op graph ~kind ~site ~recv:(v recv)
                     ~args:(List.map v args)
                     ~out:(Option.map v lhs))
            | None -> ()))

let extract_meth config app graph ~memo ~clones ~owner (m : Jir.Ast.meth) =
  let mid = Node.mid_of_meth owner m in
  let env = typing_env_memo app memo ~owner m in
  let ctx = top_ctx ~clones mid in
  List.iteri
    (fun index stmt -> extract_stmt config app graph ~memo ~ctx mid env ~index stmt)
    m.m_body

(* Seed the implicit activity instance into [this] of every lifecycle
   callback the class (or an application superclass) defines: the
   paper's [t = new a(); t.m()] modeling. *)
let seed_activity_callbacks (app : Framework.App.t) graph (cls : Jir.Ast.cls) =
  List.iter
    (fun (name, arity) ->
      match Jir.Hierarchy.resolve app.hierarchy cls.c_name { Jir.Ast.mk_name = name; mk_arity = arity } with
      | Some (owner, m) ->
          Graph.seed graph (var (Node.mid_of_meth owner m) Jir.Ast.this_var) (Node.V_act cls.c_name)
      | None -> ())
    Framework.Lifecycle.activity_callbacks;
  (* Menu extension: onCreateOptionsMenu receives the activity's
     implicit menu object; onOptionsItemSelected runs on the activity
     (its item parameter is fed by the solver at Menu_add sites). *)
  let seed_menu_callback (name, arity) param_value =
    match
      Jir.Hierarchy.resolve app.hierarchy cls.c_name { Jir.Ast.mk_name = name; mk_arity = arity }
    with
    | Some (owner, m) ->
        let tmid = Node.mid_of_meth owner m in
        Graph.seed graph (var tmid Jir.Ast.this_var) (Node.V_act cls.c_name);
        (match (param_value, m.m_params) with
        | Some value, (param, _) :: _ -> Graph.seed graph (var tmid param) value
        | _ -> ())
    | None -> ()
  in
  seed_menu_callback Framework.Lifecycle.on_create_options_menu
    (Some (Node.V_view (Node.V_alloc (Node.menu_site cls.c_name))));
  seed_menu_callback Framework.Lifecycle.on_options_item_selected None

(* Dialogs (extension): platform invokes lifecycle callbacks on dialog
   objects created by the application. *)
let seed_dialog_callbacks (app : Framework.App.t) graph =
  List.iter
    (fun (site : Node.alloc_site) ->
      if Framework.Views.is_dialog_class app.hierarchy site.a_cls then
        List.iter
          (fun (name, arity) ->
            match
              Jir.Hierarchy.resolve app.hierarchy site.a_cls { Jir.Ast.mk_name = name; mk_arity = arity }
            with
            | Some (owner, m) ->
                Graph.seed graph (var (Node.mid_of_meth owner m) Jir.Ast.this_var) (Node.V_obj site)
            | None -> ())
          Framework.Lifecycle.dialog_callbacks)
    (Graph.allocs graph)

let run ?interner config (app : Framework.App.t) =
  (* Clone names must be deterministic per extraction, not per process:
     two runs over the same app (e.g. the naive/interned equivalence
     tests, or Diff) must name inlined variables identically.  The
     counter lives here rather than at module level so extractions
     running concurrently on separate domains cannot interleave. *)
  let clones = ref 0 in
  let graph = Graph.create ?interner () in
  let memo = fresh_memo () in
  List.iter
    (fun (cls : Jir.Ast.cls) ->
      List.iter (extract_meth config app graph ~memo ~clones ~owner:cls.c_name) cls.c_methods)
    app.program.p_classes;
  List.iter (seed_activity_callbacks app graph) (Framework.App.activity_classes app);
  if config.Config.model_dialogs then seed_dialog_callbacks app graph;
  graph
