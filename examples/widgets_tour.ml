(* A tour of the modeled GUI-object categories beyond the paper's
   implementation: dialogs, options menus, list adapters, fragments,
   and <include> layout composition — all in one app.  The example
   prints the derived GUI model and verifies it against the dynamic
   semantics. *)

let code =
  {|
class MainActivity extends Activity {
  field list: ListView;
  method onCreate(): void {
    l = R.layout.main;
    this.setContentView(l);
    // adapter-backed list
    i = R.id.list;
    v0 = this.findViewById(i);
    lv = (ListView) v0;
    this.list = lv;
    ad = new RowAdapter();
    lv.setAdapter(ad);
    rc = new RowClick();
    lv.setOnItemClickListener(rc);
    // a fragment in the toolbar container
    fm = this.getFragmentManager();
    ft = fm.beginTransaction();
    f = new StatusFragment();
    cid = R.id.status_slot;
    ft.add(cid, f);
    // a confirmation dialog
    d = new ConfirmDialog();
  }
  method onCreateOptionsMenu(menu: Menu): void {
    t = 1;
    refresh = menu.add(t);
    g = 0;
    o = 0;
    did = R.id.action_delete;
    del = menu.add(g, did, o, t);
  }
  method onOptionsItemSelected(item: MenuItem): void {
    m = item.getParent();
  }
}

class RowAdapter extends BaseAdapter {
  method getView(pos: int, convert: View, parent: ViewGroup): View {
    inf = parent.getLayoutInflater();
    l = R.layout.row;
    w = inf.inflate(l);
    return w;
  }
}

class RowClick implements OnItemClickListener {
  method onItemClick(p: View, item: View, pos: int, rid: int): void {
    x = R.id.row_text;
    t = item.findViewById(x);
  }
}

class StatusFragment extends Fragment {
  method onCreateView(): View {
    inf = this.getLayoutInflater();
    l = R.layout.status;
    w = inf.inflate(l);
    return w;
  }
}

class ConfirmDialog extends Dialog {
  method onCreate(): void {
    l = R.layout.confirm;
    this.setContentView(l);
    i = R.id.yes;
    b = this.findViewById(i);
    j = new Confirm();
    b.setOnClickListener(j);
  }
}

class Confirm implements OnClickListener {
  method onClick(v: View): void { }
}
|}

let layouts =
  [
    ( "main",
      {|<LinearLayout>
          <include layout="@layout/toolbar" />
          <ListView android:id="@+id/list" />
        </LinearLayout>|} );
    ("toolbar", {|<FrameLayout android:id="@+id/status_slot" />|});
    ("row", {|<LinearLayout><TextView android:id="@+id/row_text" /></LinearLayout>|});
    ("status", {|<TextView android:id="@+id/status_text" />|});
    ("confirm", {|<LinearLayout><Button android:id="@+id/yes" /><Button android:id="@+id/no" /></LinearLayout>|});
  ]

let () =
  (* Warnings the libraries log go to stderr. *)
  Logs.set_reporter (Logs_fmt.reporter ~dst:Fmt.stderr ());
  Logs.set_level (Some Logs.Warning);
  let app =
    match Framework.App.of_source ~name:"WidgetsTour" ~code ~layouts with
    | Ok app -> app
    | Error e -> failwith e
  in
  let r = Gator.Analysis.analyze app in
  Fmt.pr "%a@.@." Gator.Analysis.pp_summary r;
  (* the activity's displayable content, across include + adapter +
     fragment boundaries *)
  Fmt.pr "MainActivity can display:@.";
  List.iter
    (fun v -> Fmt.pr "  %a@." Gator.Node.pp_view v)
    (Gator.Analysis.views_of_activity r "MainActivity");
  Fmt.pr "@.interaction tuples (including dialog content):@.";
  List.iter
    (fun ix -> Fmt.pr "  %a@." Gator.Analysis.pp_interaction ix)
    (Gator.Analysis.interactions r);
  (* menu items *)
  Fmt.pr "@.menu items of MainActivity:@.";
  let menu = Gator.Node.V_alloc (Gator.Node.menu_site "MainActivity") in
  Gator.Graph.View_set.iter
    (fun item -> Fmt.pr "  %a@." Gator.Node.pp_view item)
    (Gator.Graph.children_of r.graph menu);
  let outcome = Dynamic.Interp.run app in
  Fmt.pr "@.dynamic oracle: %a@." Dynamic.Oracle.pp_coverage (Dynamic.Oracle.check r outcome)
