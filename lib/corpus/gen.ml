module B = Jir.Builder

(* ------------------------------------------------------------------ *)
(* Work items: the unit of operation-statement generation.  Each item
   expands to a self-contained statement block inside some activity
   setup method; views produced by earlier items are communicated
   through activity fields.  The number of operation statements each
   item emits is fixed, so quotas are met exactly. *)

type item =
  | I_find of string  (** inline findViewById of the named id: 1 FindView *)
  | I_current  (** getCurrentView() on a container: 1 FindOne (counted with FindView) *)
  | I_find_merged of int  (** call shared helper [find_k]: 0 ops here (the op lives in ViewOps) *)
  | I_extra_inflate of { layout : string; attach : bool }  (** 1 Inflate (+1 AddView if attach) *)
  | I_alloc_attach of { view_cls : string; with_id : string option; attach : bool }
      (** 1 view alloc (+1 SetId if id, +1 AddView if attach) *)
  | I_set_id of string  (** 1 SetId on a previously found view *)
  | I_add_view  (** 1 AddView of a previously found view into a container *)
  | I_listener_alloc of { cls : int; register : bool }  (** 1 listener alloc (+1 SetListener if register) *)
  | I_listener_reuse  (** 1 SetListener on an already-allocated listener *)
  | I_plain_alloc of string  (** 1 unattached view alloc *)
  | I_id_ref of string  (** reference an otherwise-unused view id: 0 ops *)

type layout_info = {
  li_name : string;
  li_def : Layouts.Layout.def;
  li_root_id : string;
  li_ids : (string * string) list;  (** (id, view class) pairs present *)
}

let container_classes = Framework.Views.concrete_container_classes

let leaf_classes = Framework.Views.concrete_view_classes

let listener_iface_cycle =
  [ "OnClickListener"; "OnLongClickListener"; "OnItemClickListener"; "OnTouchListener"; "OnKeyListener" ]

let nth_cycle xs n = List.nth xs (n mod List.length xs)

(* ------------------------------------------------------------------ *)
(* Layout generation *)

let gen_layouts rng (spec : Spec.t) =
  (* [used_ids] stays a list because [Prng.choose] draws from it (its
     order is part of the deterministic generation); [used_seen] gives
     O(1) membership for the leftover computation below. *)
  let used_ids = ref [] in
  let used_seen = Hashtbl.create 64 in
  let fresh_cursor = ref 0 in
  let fresh_id () =
    if !fresh_cursor < spec.sp_view_ids then begin
      let name = Printf.sprintf "vid_%d" !fresh_cursor in
      incr fresh_cursor;
      used_ids := name :: !used_ids;
      Hashtbl.replace used_seen name ();
      Some name
    end
    else None
  in
  let pick_id () =
    if (!used_ids <> [] && Util.Prng.chance rng spec.sp_id_sharing) || !fresh_cursor >= spec.sp_view_ids
    then if !used_ids = [] then None else Some (Util.Prng.choose rng !used_ids)
    else fresh_id ()
  in
  (* Node budget: one root per layout, the rest distributed randomly. *)
  let extra = Array.make spec.sp_layouts 0 in
  for _ = 1 to spec.sp_inflated_nodes - spec.sp_layouts do
    let i = Util.Prng.int rng spec.sp_layouts in
    extra.(i) <- extra.(i) + 1
  done;
  let module T = struct
    type tree = { cls : string; id : string option; mutable kids : tree list }
  end in
  let open T in
  let make_layout index =
    let name = Printf.sprintf "layout_%d" index in
    let root_id =
      match fresh_id () with
      | Some id -> id
      | None -> Printf.sprintf "vid_%d" (index mod spec.sp_view_ids)
    in
    let root = { cls = nth_cycle container_classes index; id = Some root_id; kids = [] } in
    let containers = ref [ root ] in
    let ids = ref [ (root_id, root.cls) ] in
    for _ = 1 to extra.(index) do
      let parent = Util.Prng.choose rng !containers in
      let is_container = Util.Prng.chance rng 0.3 in
      let cls =
        if is_container then Util.Prng.choose rng container_classes
        else Util.Prng.choose rng leaf_classes
      in
      let id = if Util.Prng.chance rng 0.8 then pick_id () else None in
      let node = { cls; id; kids = [] } in
      (* newest first; [freeze] restores insertion order *)
      parent.kids <- node :: parent.kids;
      if is_container then containers := node :: !containers;
      match id with Some i -> ids := (i, cls) :: !ids | None -> ()
    done;
    let rec freeze t = Layouts.Layout.node ?id:t.id ~children:(List.rev_map freeze t.kids) t.cls in
    {
      li_name = name;
      li_def = Layouts.Layout.def ~name (freeze root);
      li_root_id = root_id;
      li_ids = List.rev !ids;
    }
  in
  let layouts = List.init spec.sp_layouts make_layout in
  let leftover =
    List.filter
      (fun i -> not (Hashtbl.mem used_seen i))
      (List.init spec.sp_view_ids (Printf.sprintf "vid_%d"))
  in
  (layouts, leftover)

(* ------------------------------------------------------------------ *)
(* Item schedule.

   Operation accounting (kept exact):
   - FindView = activities (root lookups) + inline I_find + merged
     helpers (ops inside ViewOps) + handler finds (inside listeners);
   - Inflate = activities (setContentView) + extra layouts = layouts;
   - AddView = attach budget distributed to alloc-attach, extra-inflate
     and bare add-view items;
   - SetId = alloc-attach items with ids + bare set-id items;
   - SetListener = registering allocs + reuse items. *)

type plan = {
  pl_regular : item list;  (** shuffled non-listener items *)
  pl_listener_allocs : item list;
  pl_listener_reuses : int;
  pl_merged_fv : int;  (** shared-helper find ops in ViewOps *)
  pl_handler_fv : int;  (** find ops inside listener handler bodies *)
}

let schedule rng (spec : Spec.t) (layouts : layout_info list) leftover_ids =
  let all_ids = List.init spec.sp_view_ids (Printf.sprintf "vid_%d") in
  let fv_budget = max 0 (spec.sp_findview_ops - spec.sp_activities) in
  let merged_fv =
    min fv_budget
      (int_of_float (Float.round (float_of_int spec.sp_findview_ops *. spec.sp_receiver_merge)))
  in
  let handler_fv = min spec.sp_listener_classes (max 0 (fv_budget - merged_fv)) in
  let inline_fv = max 0 (fv_budget - merged_fv - handler_fv) in
  let attach_budget = ref spec.sp_addview_ops in
  let take_attach () =
    if !attach_budget > 0 then begin
      decr attach_budget;
      true
    end
    else false
  in
  let items = ref [] in
  let push i = items := i :: !items in
  let pick_find_id () =
    if leftover_ids <> [] && Util.Prng.chance rng 0.15 then Util.Prng.choose rng leftover_ids
    else Util.Prng.choose rng all_ids
  in
  for _ = 1 to inline_fv do
    if Util.Prng.chance rng (spec.sp_id_sharing *. 0.3) then push I_current else push (I_find (pick_find_id ()))
  done;
  let fanout = 1 + int_of_float (Float.round (spec.sp_receiver_merge *. 16.0)) in
  for k = 0 to merged_fv - 1 do
    for _ = 1 to fanout do
      push (I_find_merged k)
    done
  done;
  List.iteri
    (fun i li -> if i >= spec.sp_activities then push (I_extra_inflate { layout = li.li_name; attach = take_attach () }))
    layouts;
  let alloc_attach = min spec.sp_view_allocs spec.sp_setid_ops in
  for _ = 1 to alloc_attach do
    push
      (I_alloc_attach
         {
           view_cls = Util.Prng.choose rng leaf_classes;
           with_id = Some (Util.Prng.choose rng all_ids);
           attach = take_attach ();
         })
  done;
  for _ = 1 to spec.sp_setid_ops - alloc_attach do
    push (I_set_id (Util.Prng.choose rng all_ids))
  done;
  for _ = 1 to spec.sp_view_allocs - alloc_attach do
    if take_attach () then
      push (I_alloc_attach { view_cls = Util.Prng.choose rng leaf_classes; with_id = None; attach = true })
    else push (I_plain_alloc (Util.Prng.choose rng leaf_classes))
  done;
  for _ = 1 to !attach_budget do
    push I_add_view
  done;
  attach_budget := 0;
  List.iter (fun id -> push (I_id_ref id)) leftover_ids;
  let registered = min spec.sp_listener_allocs spec.sp_setlistener_ops in
  let allocs =
    List.init spec.sp_listener_allocs (fun k ->
        I_listener_alloc { cls = k mod max 1 spec.sp_listener_classes; register = k < registered })
  in
  {
    pl_regular = Util.Prng.shuffle rng (List.rev !items);
    pl_listener_allocs = allocs;
    pl_listener_reuses = max 0 (spec.sp_setlistener_ops - registered);
    pl_merged_fv = merged_fv;
    pl_handler_fv = handler_fv;
  }

(* ------------------------------------------------------------------ *)
(* Code emission *)

type activity_state = {
  act_name : string;
  act_layout : layout_info;
  mutable view_fields : (string * bool) list;  (** (field, is_container), newest first *)
  mutable listener_fields : (string * string) list;  (** (field, listener class), registration order *)
  mutable stmts : Jir.Ast.stmt list;  (** reversed buffer for the current chunk *)
  mutable chunks : Jir.Ast.stmt list list;  (** finished setup-method bodies, reversed *)
  mutable fields : (string * Jir.Ast.ty) list;
  mutable temp : int;
}

let fresh_temp act prefix =
  act.temp <- act.temp + 1;
  Printf.sprintf "%s%d" prefix act.temp

let emit act stmts = act.stmts <- List.rev_append stmts act.stmts

let chunk_limit = 14

let maybe_close_chunk act =
  if List.length act.stmts >= chunk_limit then begin
    act.chunks <- List.rev act.stmts :: act.chunks;
    act.stmts <- []
  end

(* Field names are unique per activity: the analysis is field-based
   (one location per field name), and real applications declare their
   fields in distinct classes.  Sharing names across activities would
   merge every activity's views artificially. *)
let add_view_field act ~is_container =
  let field = Printf.sprintf "%s_fv_%d" act.act_name (List.length act.view_fields) in
  act.fields <- (field, B.tclass "View") :: act.fields;
  act.view_fields <- (field, is_container) :: act.view_fields;
  field

let pick_view_field rng act ~prefer_container =
  match act.view_fields with
  | [] -> None
  | fields ->
      let containers = List.filter snd fields in
      let pool = if prefer_container && containers <> [] then containers else fields in
      Some (fst (Util.Prng.choose rng pool))

(* Built eagerly at module init (not [lazy]): a lazy forced for the
   first time by two domains at once is a race, and generation runs on
   pool workers.  Read-only afterward, so concurrent lookups are safe. *)
let container_class_set =
  let tbl = Hashtbl.create 16 in
  List.iter (fun cls -> Hashtbl.replace tbl cls ()) container_classes;
  tbl

let is_container_class cls = Hashtbl.mem container_class_set cls

let emit_item rng ~share act listener_classes item =
  (* Every activity starts with a root find, so a view field is always
     available; [load_view] therefore always emits its body, keeping
     operation counts exact. *)
  let load_view ~prefer_container body =
    match pick_view_field rng act ~prefer_container with
    | None -> assert false
    | Some field ->
        let v = fresh_temp act "u" in
        emit act (B.read v Jir.Ast.this_var field :: body v)
  in
  (match item with
  | I_find id ->
      let a = fresh_temp act "a" in
      let v = fresh_temp act "v" in
      (* When the id names a node of this activity's layout, downcast
         the result to that node's class, as real code does; cast
         filtering then prunes same-id views of other classes. *)
      let node_cls = List.assoc_opt id act.act_layout.li_ids in
      let is_container =
        match node_cls with Some cls -> is_container_class cls | None -> false
      in
      let field = add_view_field act ~is_container in
      let store =
        match node_cls with
        | Some cls ->
            let c = fresh_temp act "c" in
            [ B.cast c cls v; B.write Jir.Ast.this_var field c ]
        | None -> [ B.write Jir.Ast.this_var field v ]
      in
      emit act (B.view_id a id :: B.call ~into:v Jir.Ast.this_var "findViewById" [ a ] :: store)
  | I_current ->
      load_view ~prefer_container:true (fun v ->
          let w = fresh_temp act "w" in
          let field = add_view_field act ~is_container:false in
          [ B.call ~into:w v "getCurrentView" []; B.write Jir.Ast.this_var field w ])
  | I_find_merged k ->
      (* Containers (layout roots and inflated roots) are the views a
         real app hands to shared decoration helpers; they are also
         guaranteed non-empty, so each call site contributes a distinct
         receiver to the shared operation. *)
      load_view ~prefer_container:true (fun v ->
          let ops = fresh_temp act "o" in
          let w = fresh_temp act "w" in
          let field = add_view_field act ~is_container:false in
          [
            B.read ops Jir.Ast.this_var "f_ops";
            B.call ~into:w ops (Printf.sprintf "find_%d" k) [ v ];
            B.write Jir.Ast.this_var field w;
          ])
  | I_extra_inflate { layout; attach } ->
      let inf = fresh_temp act "inf" in
      let lid = fresh_temp act "lid" in
      let k = fresh_temp act "k" in
      let field = add_view_field act ~is_container:true in
      emit act
        [
          B.call ~into:inf Jir.Ast.this_var "getLayoutInflater" [];
          B.layout_id lid layout;
          B.call ~into:k inf "inflate" [ lid ];
          B.write Jir.Ast.this_var field k;
        ];
      if attach then
        load_view ~prefer_container:true (fun v ->
            let k2 = fresh_temp act "k" in
            [ B.read k2 Jir.Ast.this_var field; B.call v "addView" [ k2 ] ])
  | I_alloc_attach { view_cls; with_id; attach } ->
      let w = fresh_temp act "w" in
      let field = add_view_field act ~is_container:(is_container_class view_cls) in
      emit act [ B.new_ w view_cls; B.write Jir.Ast.this_var field w ];
      (match with_id with
      | Some id_name ->
          let x = fresh_temp act "x" in
          emit act [ B.view_id x id_name; B.call w "setId" [ x ] ]
      | None -> ());
      if attach then
        load_view ~prefer_container:true (fun v ->
            let w2 = fresh_temp act "w" in
            [ B.read w2 Jir.Ast.this_var field; B.call v "addView" [ w2 ] ])
  | I_set_id id ->
      load_view ~prefer_container:false (fun v ->
          let x = fresh_temp act "x" in
          [ B.view_id x id; B.call v "setId" [ x ] ])
  | I_add_view ->
      load_view ~prefer_container:true (fun parent ->
          let child_field =
            match pick_view_field rng act ~prefer_container:false with
            | Some f -> f
            | None -> assert false
          in
          let c = fresh_temp act "c" in
          [ B.read c Jir.Ast.this_var child_field; B.call parent "addView" [ c ] ])
  | I_listener_alloc { cls; register } ->
      let cls_name, iface = nth_cycle listener_classes cls in
      let l = fresh_temp act "l" in
      (* With probability [share], store into an existing field of the
         same class: both allocations then reach every setter using the
         field, modeling apps that overwrite listener fields. *)
      let reusable =
        if Util.Prng.chance rng share then
          List.find_opt (fun (_, c) -> c = cls_name) act.listener_fields
        else None
      in
      let field =
        match reusable with
        | Some (field, _) -> field
        | None ->
            let field = Printf.sprintf "%s_fl_%d" act.act_name (List.length act.listener_fields) in
            act.fields <- (field, B.tclass cls_name) :: act.fields;
            act.listener_fields <- act.listener_fields @ [ (field, cls_name) ];
            field
      in
      emit act [ B.new_ l cls_name; B.write Jir.Ast.this_var field l ];
      if register then
        load_view ~prefer_container:false (fun v ->
            let l2 = fresh_temp act "l" in
            [
              B.read l2 Jir.Ast.this_var field;
              B.call l2 "init" [ v ];
              B.call v iface.Framework.Listeners.i_setter [ l2 ];
            ])
  | I_listener_reuse -> (
      match act.listener_fields with
      | [] -> assert false
      | fields ->
          let field, cls_name = Util.Prng.choose rng fields in
          let iface =
            match List.find_opt (fun (name, _) -> name = cls_name) listener_classes with
            | Some (_, iface) -> iface
            | None -> snd (List.hd listener_classes)
          in
          load_view ~prefer_container:false (fun v ->
              let l = fresh_temp act "l" in
              [ B.read l Jir.Ast.this_var field; B.call v iface.Framework.Listeners.i_setter [ l ] ]))
  | I_plain_alloc view_cls ->
      let w = fresh_temp act "w" in
      let field = add_view_field act ~is_container:(is_container_class view_cls) in
      emit act [ B.new_ w view_cls; B.write Jir.Ast.this_var field w ]
  | I_id_ref id ->
      let x = fresh_temp act "x" in
      emit act [ B.view_id x id ]);
  maybe_close_chunk act

(* ------------------------------------------------------------------ *)

let build_activity_class act =
  let setups = List.rev (if act.stmts = [] then act.chunks else List.rev act.stmts :: act.chunks) in
  let setup_meths = List.mapi (fun i body -> B.meth (Printf.sprintf "setup_%d" i) body) setups in
  let on_create_body =
    B.layout_id "lid" act.act_layout.li_name
    :: B.call Jir.Ast.this_var "setContentView" [ "lid" ]
    :: B.new_ "ops0" "ViewOps"
    :: B.write Jir.Ast.this_var "f_ops" "ops0"
    :: List.mapi (fun i _ -> B.call Jir.Ast.this_var (Printf.sprintf "setup_%d" i) []) setups
  in
  let fields = ("f_ops", B.tclass "ViewOps") :: List.rev act.fields in
  B.cls ~extends:"Activity" ~fields
    ~methods:(B.meth "onCreate" on_create_body :: setup_meths)
    act.act_name

let build_listener_class rng all_ids ~with_find (name, iface) =
  (* Unique field name per class: see the note on [add_view_field]. *)
  let root_field = Printf.sprintf "%s_root" name in
  let first_handler = List.hd iface.Framework.Listeners.i_handlers in
  let handlers =
    List.map
      (fun (h : Framework.Listeners.handler) ->
        let params =
          List.init h.h_arity (fun i ->
              let ty = if h.h_view_param = Some i then B.tclass "View" else Jir.Ast.Tint in
              (Printf.sprintf "p%d" i, ty))
        in
        let body =
          if with_find && h.h_name = first_handler.h_name then
            [
              B.read "r" Jir.Ast.this_var root_field;
              B.view_id "x" (Util.Prng.choose rng all_ids);
              B.call ~into:"w" "r" "findViewById" [ "x" ];
            ]
          else []
        in
        B.meth ~params h.h_name body)
      iface.Framework.Listeners.i_handlers
  in
  let init =
    B.meth ~params:[ ("r0", B.tclass "View") ] "init" [ B.write Jir.Ast.this_var root_field "r0" ]
  in
  B.cls
    ~implements:[ iface.Framework.Listeners.i_name ]
    ~fields:[ (root_field, B.tclass "View") ]
    ~methods:(init :: handlers) name

let build_view_ops rng merged_fv all_ids =
  let meths =
    if merged_fv = 0 then
      [
        B.meth
          ~params:[ ("v", B.tclass "View") ]
          ~ret:(B.tclass "View") "passthrough"
          [ B.ret ~value:"v" () ];
      ]
    else
      List.init merged_fv (fun k ->
          B.meth
            ~params:[ ("v", B.tclass "View") ]
            ~ret:(B.tclass "View")
            (Printf.sprintf "find_%d" k)
            [
              B.view_id "a" (Util.Prng.choose rng all_ids);
              B.call ~into:"w" "v" "findViewById" [ "a" ];
              B.ret ~value:"w" ();
            ])
  in
  B.cls ~methods:meths "ViewOps"

let build_helpers (spec : Spec.t) ~used_classes ~used_methods =
  let n_helpers = max 0 (spec.sp_classes - used_classes) in
  let n_methods = max 0 (spec.sp_methods - used_methods) in
  if n_helpers = 0 then []
  else begin
    let per = n_methods / n_helpers in
    let extra = n_methods mod n_helpers in
    List.init n_helpers (fun i ->
        let count = per + if i < extra then 1 else 0 in
        let next = Printf.sprintf "Helper_%d" ((i + 1) mod n_helpers) in
        let peer_count = per + if (i + 1) mod n_helpers < extra then 1 else 0 in
        let meths =
          List.init count (fun j ->
              let name = Printf.sprintf "h%d_m%d" i j in
              if j > 0 && j mod 3 = 0 && n_helpers > 1 && j - 1 < peer_count then
                B.meth ~params:[ ("x", Jir.Ast.Tint) ] ~ret:Jir.Ast.Tint name
                  [
                    B.read "p" Jir.Ast.this_var "peer";
                    B.call ~into:"y" "p"
                      (Printf.sprintf "h%d_m%d" ((i + 1) mod n_helpers) (j - 1))
                      [ "x" ];
                    B.ret ~value:"y" ();
                  ]
              else
                B.meth ~params:[ ("x", Jir.Ast.Tint) ] ~ret:Jir.Ast.Tint name
                  [ B.copy "y" "x"; B.ret ~value:"y" () ])
        in
        B.cls ~fields:[ ("peer", B.tclass next) ] ~methods:meths (Printf.sprintf "Helper_%d" i))
  end

let count_methods classes =
  List.fold_left (fun acc (c : Jir.Ast.cls) -> acc + List.length c.c_methods) 0 classes

let generate (spec : Spec.t) =
  (match Spec.validate spec with Ok () -> () | Error e -> invalid_arg ("Gen.generate: " ^ e));
  let rng = Util.Prng.create spec.sp_seed in
  let layouts, leftover_ids = gen_layouts rng spec in
  let plan = schedule rng spec layouts leftover_ids in
  let all_ids = List.init spec.sp_view_ids (Printf.sprintf "vid_%d") in
  let listener_classes =
    List.init spec.sp_listener_classes (fun k ->
        let iface_name = nth_cycle listener_iface_cycle k in
        let iface = Option.get (Framework.Listeners.by_name iface_name) in
        (Printf.sprintf "Listener_%d" k, iface))
  in
  let layout_arr = Array.of_list layouts in
  let acts =
    List.init spec.sp_activities (fun i ->
        let layout = layout_arr.(i) in
        let act =
          {
            act_name = Printf.sprintf "Activity_%d" i;
            act_layout = layout;
            view_fields = [];
            listener_fields = [];
            stmts = [];
            chunks = [];
            fields = [];
            temp = 0;
          }
        in
        let field = add_view_field act ~is_container:true in
        emit act
          [
            B.view_id "a0" layout.li_root_id;
            B.call ~into:"v0" Jir.Ast.this_var "findViewById" [ "a0" ];
            B.write Jir.Ast.this_var field "v0";
          ];
        act)
  in
  let act_arr = Array.of_list acts in
  let nth_act i = act_arr.(i mod Array.length act_arr) in
  List.iteri (fun i item -> emit_item rng ~share:spec.sp_id_sharing (nth_act i) listener_classes item) plan.pl_regular;
  (* Listener allocations round-robin, then reuse registrations on
     activities that hold a listener. *)
  List.iteri (fun i item -> emit_item rng ~share:spec.sp_id_sharing (nth_act i) listener_classes item) plan.pl_listener_allocs;
  let holding = Array.of_list (List.filter (fun a -> a.listener_fields <> []) acts) in
  if plan.pl_listener_reuses > 0 && Array.length holding > 0 then
    for k = 0 to plan.pl_listener_reuses - 1 do
      emit_item rng ~share:spec.sp_id_sharing
        holding.(k mod Array.length holding)
        listener_classes I_listener_reuse
    done;
  let activity_classes = List.map build_activity_class acts in
  let listener_cls_defs =
    List.mapi
      (fun k lc -> build_listener_class rng all_ids ~with_find:(k < plan.pl_handler_fv) lc)
      listener_classes
  in
  let view_ops = build_view_ops rng plan.pl_merged_fv all_ids in
  let used_classes = List.length activity_classes + List.length listener_cls_defs + 1 in
  let used_methods = count_methods (view_ops :: (activity_classes @ listener_cls_defs)) in
  let helpers = build_helpers spec ~used_classes ~used_methods in
  (* With no helper classes left in the class budget, absorb the
     remaining method budget into ViewOps so Table 1's method count
     still lands exactly on the spec. *)
  let view_ops =
    if helpers = [] && spec.sp_methods > used_methods then
      let deficit = spec.sp_methods - used_methods in
      let pads =
        List.init deficit (fun j ->
            B.meth ~params:[ ("x", Jir.Ast.Tint) ] ~ret:Jir.Ast.Tint
              (Printf.sprintf "pass_%d" j)
              [ B.copy "y" "x"; B.ret ~value:"y" () ])
      in
      { view_ops with Jir.Ast.c_methods = view_ops.Jir.Ast.c_methods @ pads }
    else view_ops
  in
  let program = B.program (activity_classes @ listener_cls_defs @ [ view_ops ] @ helpers) in
  let package = Layouts.Package.create () in
  List.iter (fun li -> Layouts.Package.add package li.li_def) layouts;
  Framework.App.make ~name:spec.sp_name program package

let random_spec ?(name = "Random") rng =
  let activities = Util.Prng.int_in rng 1 3 in
  let layouts = activities + Util.Prng.int_in rng 0 2 in
  let view_ids = Util.Prng.int_in rng 2 10 in
  let listener_classes = Util.Prng.int_in rng 1 3 in
  let listener_allocs = Util.Prng.int_in rng 0 4 in
  let setlistener = if listener_allocs = 0 then 0 else Util.Prng.int_in rng 0 (listener_allocs + 2) in
  {
    Spec.sp_name = name;
    sp_seed = Int64.to_int (Util.Prng.next rng) land 0xFFFFFF;
    sp_classes = activities + listener_classes + 1 + Util.Prng.int_in rng 0 3;
    sp_methods = Util.Prng.int_in rng 10 60;
    sp_activities = activities;
    sp_layouts = layouts;
    sp_view_ids = view_ids;
    sp_inflated_nodes = layouts + Util.Prng.int_in rng 0 12;
    sp_view_allocs = Util.Prng.int_in rng 0 4;
    sp_listener_classes = listener_classes;
    sp_listener_allocs = listener_allocs;
    sp_findview_ops = activities + Util.Prng.int_in rng 0 8;
    sp_addview_ops = Util.Prng.int_in rng 0 5;
    sp_setid_ops = Util.Prng.int_in rng 0 3;
    sp_setlistener_ops = setlistener;
    sp_id_sharing = float_of_int (Util.Prng.int_in rng 0 5) /. 10.0;
    sp_receiver_merge = float_of_int (Util.Prng.int_in rng 0 5) /. 10.0;
  }

(* ------------------------------------------------------------------ *)
(* Cycle-heavy generator (SCC-condensation stress).

   The spec-driven generator above produces mostly acyclic flow; the
   apps built here maximize direct-edge cycles instead: long copy
   chains closed into rings, tight mutual-assignment 2-cycles, and
   cast statements bridging rings.  Casts stay *out* of the SCC
   condensation — a bridge between two rings is exactly the filtered
   inter-component edge shape the condensed CSR must keep, and a
   bridge landing back in its own ring is an intra-component cast
   edge the condensation is allowed to drop (the direct path already
   carries everything).  A few GUI operations read ring variables so
   operation scheduling interacts with shared component sets, and a
   listener whose handlers have empty bodies forces the solver to
   mint handler [this]/parameter node ids mid-solve. *)

let cyclic_app ?(name = "Cyclic") ~chains ~chain_len ~two_cycles ~bridges ~seed () =
  if chains < 1 || chain_len < 2 then
    invalid_arg "Gen.cyclic_app: chains >= 1 and chain_len >= 2 required";
  let rng = Util.Prng.create seed in
  let layout_name = name ^ "_main" in
  let root_id = "vid_root" and leaf_id = "vid_leaf" in
  let layout =
    Layouts.Layout.def ~name:layout_name
      (Layouts.Layout.node ~id:root_id
         ~children:[ Layouts.Layout.node ~id:leaf_id ~children:[] "Button" ]
         "LinearLayout")
  in
  let var c i = Printf.sprintf "ch%d_%d" c i in
  let rev_stmts = ref [] in
  let emit ss = rev_stmts := List.rev_append ss !rev_stmts in
  emit
    [
      B.layout_id "lid" layout_name;
      B.call Jir.Ast.this_var "setContentView" [ "lid" ];
      B.view_id "a0" root_id;
      B.call ~into:"v0" Jir.Ast.this_var "findViewById" [ "a0" ];
    ];
  (* Long alias chains closed into rings, each seeded from the root
     view; every ring collapses to one SCC under condensation. *)
  for c = 0 to chains - 1 do
    emit [ B.copy (var c 0) "v0" ];
    for i = 1 to chain_len - 1 do
      emit [ B.copy (var c i) (var c (i - 1)) ]
    done;
    emit [ B.copy (var c 0) (var c (chain_len - 1)) ]
  done;
  (* Tight mutual-assignment 2-cycles. *)
  for k = 0 to two_cycles - 1 do
    let a = Printf.sprintf "tw%d_a" k and b = Printf.sprintf "tw%d_b" k in
    emit [ B.copy a "v0"; B.copy b a; B.copy a b ]
  done;
  (* Cast edges from one ring into the next (or, with a single ring,
     back into itself); the class alternates between one the root view
     passes and one it does not, exercising the cast filter on both
     kept (inter-component) and dropped (intra-component) edges. *)
  for j = 0 to bridges - 1 do
    let src = j mod chains and tgt = (j + 1) mod chains in
    let cls = if Util.Prng.bool rng then "LinearLayout" else "Button" in
    emit [ B.cast (var tgt (1 mod chain_len)) cls (var src (chain_len / 2)) ]
  done;
  (* GUI operations reading ring variables: growth of a shared
     component set must reschedule them. *)
  emit
    [
      B.new_ "w0" "Button";
      B.call (var 0 (chain_len - 1)) "addView" [ "w0" ];
      B.view_id "a1" leaf_id;
      B.call ~into:"f0" (var 0 (chain_len / 2)) "findViewById" [ "a1" ];
      B.copy (var (chains - 1) 0) "f0";
    ];
  (* A listener with empty handler bodies: its [this] and parameters
     are only interned when handler flows are injected mid-solve. *)
  let iface = Option.get (Framework.Listeners.by_name "OnClickListener") in
  let listener_name = name ^ "_Listener" in
  let listener_cls =
    let handlers =
      List.map
        (fun (h : Framework.Listeners.handler) ->
          let params =
            List.init h.h_arity (fun i ->
                let ty = if h.h_view_param = Some i then B.tclass "View" else Jir.Ast.Tint in
                (Printf.sprintf "p%d" i, ty))
          in
          B.meth ~params h.h_name [])
        iface.Framework.Listeners.i_handlers
    in
    B.cls ~implements:[ iface.Framework.Listeners.i_name ] ~methods:handlers listener_name
  in
  emit
    [
      B.new_ "l0" listener_name;
      B.call (var 0 0) iface.Framework.Listeners.i_setter [ "l0" ];
    ];
  let activity =
    B.cls ~extends:"Activity"
      ~methods:[ B.meth "onCreate" (List.rev !rev_stmts) ]
      (name ^ "_Activity")
  in
  let program = B.program [ activity; listener_cls ] in
  let package = Layouts.Package.create () in
  Layouts.Package.add package layout;
  Framework.App.make ~name program package

let random_cyclic_app ?(name = "Cyclic") rng =
  let chains = Util.Prng.int_in rng 1 4 in
  let chain_len = Util.Prng.int_in rng 2 12 in
  let two_cycles = Util.Prng.int_in rng 0 4 in
  let bridges = Util.Prng.int_in rng 0 (2 * chains) in
  let seed = Int64.to_int (Util.Prng.next rng) land 0xFFFFFF in
  cyclic_app ~name ~chains ~chain_len ~two_cycles ~bridges ~seed ()

(* ------------------------------------------------------------------ *)
(* Alias-heavy generator (context-sensitivity precision stress).

   Many call sites dispatch DISTINCT views through a handful of shared
   small helper methods.  Context-insensitively each helper's parameter
   merges every caller's view, so the result flowing back to each call
   site carries the whole group's views; with inlining-based
   separation (Config.inline_depth > 0) each site keeps exactly its
   own.  The per-site results feed [setId] operations, so
   the merge shows up directly in Table 2's average receiver set size.
   Groups alternate between single-hop helpers (separated already at
   depth 1) and two-hop helpers whose inner call only separates at
   depth 2, grading the precision delta by depth. *)

let alias_heavy_app ?(name = "Alias") ~groups ~sites_per_group ~seed () =
  if groups < 1 || sites_per_group < 1 then
    invalid_arg "Gen.alias_heavy_app: groups >= 1 and sites_per_group >= 1 required";
  let rng = Util.Prng.create seed in
  let layout_name = name ^ "_main" in
  let root_id = "vid_root" in
  let child_ids = List.init 4 (Printf.sprintf "vid_%d") in
  let layout =
    Layouts.Layout.def ~name:layout_name
      (Layouts.Layout.node ~id:root_id
         ~children:(List.map (fun id -> Layouts.Layout.node ~id ~children:[] "Button") child_ids)
         "LinearLayout")
  in
  let rev_stmts = ref [] in
  let emit ss = rev_stmts := List.rev_append ss !rev_stmts in
  emit
    [
      B.layout_id "lid" layout_name;
      B.call Jir.Ast.this_var "setContentView" [ "lid" ];
      B.new_ "d0" "Deco";
      B.write Jir.Ast.this_var "f_deco" "d0";
    ];
  let fields = ref [ ("f_deco", B.tclass "Deco") ] in
  for k = 0 to groups - 1 do
    for s = 0 to sites_per_group - 1 do
      let w = Printf.sprintf "w%d_%d" k s in
      let d = Printf.sprintf "d%d_%d" k s in
      let r = Printf.sprintf "r%d_%d" k s in
      let x = Printf.sprintf "x%d_%d" k s in
      let field = Printf.sprintf "%s_f%d_%d" name k s in
      fields := (field, B.tclass "View") :: !fields;
      emit
        [
          (* distinct allocation site per call site: the helper's
             parameter is where the aliasing happens *)
          B.new_ w (Util.Prng.choose rng leaf_classes);
          B.read d Jir.Ast.this_var "f_deco";
          B.call ~into:r d (Printf.sprintf "deco_%d" k) [ w ];
          B.write Jir.Ast.this_var field r;
          B.view_id x (nth_cycle child_ids (k + s));
          B.call r "setId" [ x ];
        ]
    done
  done;
  let deco_meths =
    List.concat
      (List.init groups (fun k ->
           let mname = Printf.sprintf "deco_%d" k in
           let params = [ ("v", B.tclass "View") ] in
           let ret = B.tclass "View" in
           if k mod 2 = 0 then
             [ B.meth ~params ~ret mname [ B.copy "w" "v"; B.ret ~value:"w" () ] ]
           else
             [
               B.meth ~params ~ret mname
                 [
                   B.call ~into:"u" Jir.Ast.this_var (Printf.sprintf "inner_%d" k) [ "v" ];
                   B.ret ~value:"u" ();
                 ];
               B.meth ~params ~ret
                 (Printf.sprintf "inner_%d" k)
                 [ B.copy "w" "v"; B.ret ~value:"w" () ];
             ]))
  in
  let deco_cls = B.cls ~methods:deco_meths "Deco" in
  let activity =
    B.cls ~extends:"Activity" ~fields:(List.rev !fields)
      ~methods:[ B.meth "onCreate" (List.rev !rev_stmts) ]
      (name ^ "_Activity")
  in
  let program = B.program [ activity; deco_cls ] in
  let package = Layouts.Package.create () in
  Layouts.Package.add package layout;
  Framework.App.make ~name program package

let random_alias_heavy_app ?(name = "Alias") rng =
  let groups = Util.Prng.int_in rng 1 4 in
  let sites_per_group = Util.Prng.int_in rng 2 6 in
  let seed = Int64.to_int (Util.Prng.next rng) land 0xFFFFFF in
  alias_heavy_app ~name ~groups ~sites_per_group ~seed ()

(* ------------------------------------------------------------------ *)
(* Reflection-heavy generator (sound-mode stress).

   Resource ids arrive through reflection-style lookups the analysis
   cannot resolve ([R.layout.?] / [R.id.?]), so the sound engines must
   treat them as ⊤: [setContentView ⊤] inflates every layout of the
   package, [findViewById ⊤] matches every id in scope, and
   [setId (v, ⊤)] makes [v] answer every id query.  The dynamic oracle
   replays the app once per candidate resolution
   ([Interp.options.top_layout] / [top_view]); a sound static solution
   must cover all of those runs.  One activity stays fully concrete so
   the ⊤ taint is a strict subset of the solution — the precision
   table's pollution fraction depends on that. *)

let reflective_app ?(name = "Refl") ~layouts ~seed () =
  if layouts < 1 then invalid_arg "Gen.reflective_app: layouts >= 1 required";
  let rng = Util.Prng.create seed in
  let layout_name i = Printf.sprintf "%s_lyt%d" name i in
  let root_id i = Printf.sprintf "vid_root%d" i in
  let btn_id i = Printf.sprintf "vid_btn%d" i in
  let defs =
    List.init layouts (fun i ->
        Layouts.Layout.def ~name:(layout_name i)
          (Layouts.Layout.node ~id:(root_id i)
             ~children:[ Layouts.Layout.node ~id:(btn_id i) ~children:[] "Button" ]
             "LinearLayout"))
  in
  let iface = Option.get (Framework.Listeners.by_name "OnClickListener") in
  let listener_name = name ^ "_Listener" in
  let listener_cls =
    let handlers =
      List.map
        (fun (h : Framework.Listeners.handler) ->
          let params =
            List.init h.h_arity (fun i ->
                let ty = if h.h_view_param = Some i then B.tclass "View" else Jir.Ast.Tint in
                (Printf.sprintf "p%d" i, ty))
          in
          B.meth ~params h.h_name [])
        iface.Framework.Listeners.i_handlers
    in
    B.cls ~implements:[ iface.Framework.Listeners.i_name ] ~methods:handlers listener_name
  in
  (* the reflective activity: an unresolvable content layout, an
     unresolvable find, and an unresolvable setId *)
  let refl_body =
    [
      B.layout_top "lid";
      B.call Jir.Ast.this_var "setContentView" [ "lid" ];
      B.view_id_top "q";
      B.call ~into:"v" Jir.Ast.this_var "findViewById" [ "q" ];
      (* cast filtering still applies to ⊤-matched values *)
      B.cast "b" "Button" "v";
      B.new_ "w" (Util.Prng.choose rng leaf_classes);
      B.view_id_top "sid";
      B.call "w" "setId" [ "sid" ];
      B.call "v" "addView" [ "w" ];
      (* a concrete query in ⊤ scope: must still see the sentinel
         carrier [w] and every candidate the ⊤ inflation brought in *)
      B.view_id "a0" (btn_id 0);
      B.call ~into:"f" Jir.Ast.this_var "findViewById" [ "a0" ];
      B.new_ "l0" listener_name;
      B.call "f" iface.Framework.Listeners.i_setter [ "l0" ];
    ]
  in
  let refl_activity =
    B.cls ~extends:"Activity" ~methods:[ B.meth "onCreate" refl_body ] (name ^ "_Activity")
  in
  (* a fully concrete activity over layout 0: its solution sets must
     come out untainted *)
  let concrete_body =
    [
      B.layout_id "clid" (layout_name 0);
      B.call Jir.Ast.this_var "setContentView" [ "clid" ];
      B.view_id "ca0" (btn_id 0);
      B.call ~into:"x" Jir.Ast.this_var "findViewById" [ "ca0" ];
    ]
  in
  let concrete_activity =
    B.cls ~extends:"Activity" ~methods:[ B.meth "onCreate" concrete_body ] (name ^ "_Concrete")
  in
  let program = B.program [ refl_activity; concrete_activity; listener_cls ] in
  let package = Layouts.Package.create () in
  List.iter (Layouts.Package.add package) defs;
  Framework.App.make ~name program package

let random_reflective_app ?(name = "Refl") rng =
  let layouts = Util.Prng.int_in rng 1 4 in
  let seed = Int64.to_int (Util.Prng.next rng) land 0xFFFFFF in
  reflective_app ~name ~layouts ~seed ()

(* ------------------------------------------------------------------ *)
(* Streaming spec source.

   [stream_spec ~seed i] is a pure function of (seed, i): each index
   gets its own PRNG, so a streaming driver and a batch driver handed
   the same indices build byte-identical apps regardless of pull
   order, and a stream can be replayed from any offset. *)

let stream_spec ~seed i =
  if i < 0 then invalid_arg "Gen.stream_spec: negative index";
  let rng = Util.Prng.create ((seed * 0x9E3779B9) lxor (i * 0x85EBCA6B) lxor 0x5BD1E995) in
  random_spec ~name:(Printf.sprintf "Stream_%d_%d" seed i) rng
