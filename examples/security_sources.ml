(* Security-analysis client (Section 6): taint analyses such as
   FlowDroid need to know which GUI objects carry sensitive user input
   (passwords, PINs) and which code can read them.  The paper's
   analysis provides exactly the needed map: sensitive views, the
   handlers that receive them, and the activities that display them.

   This example marks password/PIN fields as taint sources and reports
   every handler method into which such a view can flow — the entry
   points a taint analysis must seed. *)

let code =
  {|
class LoginActivity extends Activity {
  field user: EditText;
  field pass: EditText;
  method onCreate(): void {
    l = R.layout.login;
    this.setContentView(l);
    a = R.id.username;
    u0 = this.findViewById(a);
    u1 = (EditText) u0;
    this.user = u1;
    b = R.id.password;
    p0 = this.findViewById(b);
    p1 = (EditText) p0;
    this.pass = p1;
    c = R.id.submit;
    s0 = this.findViewById(c);
    j = new SubmitListener();
    j.init(this);
    s0.setOnClickListener(j);
    k = new PasswordWatcher();
    p1.setOnFocusChangeListener(k);
  }
}

class PinActivity extends Activity {
  method onCreate(): void {
    l = R.layout.pin;
    this.setContentView(l);
    a = R.id.pin_entry;
    p0 = this.findViewById(a);
    j = new PinListener();
    p0.setOnEditorActionListener(j);
  }
}

class SubmitListener implements OnClickListener {
  field owner: LoginActivity;
  method init(o: LoginActivity): void { this.owner = o; }
  method onClick(v: View): void {
    o = this.owner;
    p = o.pass;
    // p's text would be read and sent over the network here
  }
}

class PasswordWatcher implements OnFocusChangeListener {
  method onFocusChange(v: View, has: int): void { }
}

class PinListener implements OnEditorActionListener {
  method onEditorAction(v: View, action: int, ev: int): void { }
}
|}

let layouts =
  [
    ( "login",
      {|<LinearLayout>
          <EditText android:id="@+id/username" />
          <EditText android:id="@+id/password" />
          <Button android:id="@+id/submit" />
        </LinearLayout>|} );
    ("pin", {|<LinearLayout><EditText android:id="@+id/pin_entry" /></LinearLayout>|});
  ]

let sensitive_id name =
  List.exists
    (fun marker ->
      let n = String.length marker in
      let rec go i = i + n <= String.length name && (String.sub name i n = marker || go (i + 1)) in
      go 0)
    [ "password"; "pass"; "pin"; "secret" ]

let () =
  (* Warnings the libraries log go to stderr. *)
  Logs.set_reporter (Logs_fmt.reporter ~dst:Fmt.stderr ());
  Logs.set_level (Some Logs.Warning);
  let app =
    match Framework.App.of_source ~name:"Security" ~code ~layouts with
    | Ok app -> app
    | Error e -> failwith e
  in
  let r = Gator.Analysis.analyze app in
  Fmt.pr "%a@.@." Gator.Analysis.pp_summary r;
  let resources = Layouts.Package.resources app.package in
  let sensitive_views =
    List.filter_map
      (fun name -> if sensitive_id name then Some (name, Gator.Analysis.views_with_id r name) else None)
      (Layouts.Resource.view_names resources)
  in
  Fmt.pr "sensitive input views (taint sources):@.";
  List.iter
    (fun (name, views) ->
      List.iter (fun v -> Fmt.pr "  #%s = %a@." name Gator.Node.pp_view v) views)
    sensitive_views;
  (* 1. handlers that receive a sensitive view directly as a callback
        parameter (via its listeners) *)
  Fmt.pr "@.handlers receiving sensitive views as parameters:@.";
  List.iter
    (fun (_, views) ->
      List.iter
        (fun v ->
          List.iter
            (fun (listener, iface_name) ->
              Fmt.pr "  %a --%s--> %a@." Gator.Node.pp_view v iface_name Gator.Node.pp_listener
                listener)
            (Gator.Analysis.listeners_of_view r v))
        views)
    sensitive_views;
  (* 2. handler methods into whose scope a sensitive view flows at all
        (e.g. through activity fields) — the seeding set for a taint
        analysis *)
  Fmt.pr "@.handler variables a sensitive view can reach:@.";
  let sensitive = List.concat_map snd sensitive_views in
  List.iter
    (fun (ix : Gator.Analysis.interaction) ->
      let handler = ix.ix_handler in
      let handler_cls = handler.mid_cls in
      (* check every variable of the handler's class methods *)
      List.iter
        (fun (cls : Jir.Ast.cls) ->
          if cls.c_name = handler_cls then
            List.iter
              (fun (m : Jir.Ast.meth) ->
                List.iter
                  (fun var_name ->
                    let node =
                      Gator.Analysis.var ~cls:cls.c_name ~meth:m.m_name
                        ~arity:(List.length m.m_params) var_name
                    in
                    let reaching = Gator.Analysis.views_at r node in
                    List.iter
                      (fun v ->
                        if List.mem v sensitive then
                          Fmt.pr "  %s.%s: %s <- %a@." cls.c_name m.m_name var_name
                            Gator.Node.pp_view v)
                      reaching)
                  (Jir.Ast.meth_vars m))
              cls.c_methods)
        app.program.p_classes)
    (Gator.Analysis.interactions r)
