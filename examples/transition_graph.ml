(* Activity transition graph (Section 6): SCanDroid and A3E build a
   static graph of activities and possible transitions to drive
   run-time exploration.  The paper argues a GUI-object analysis is
   needed to do this correctly: transitions happen inside event
   handlers registered on views, outside the activity classes.

   This example is exactly that scenario: every launch happens in an
   OnClickListener, reachable only through the view/listener model. *)

let code =
  {|
class HomeActivity extends Activity {
  method onCreate(): void {
    l = R.layout.home;
    this.setContentView(l);
    a = R.id.go_list;
    b0 = this.findViewById(a);
    j = new GoList();
    j.init(this);
    b0.setOnClickListener(j);
    c = R.id.go_about;
    b1 = this.findViewById(c);
    k = new GoAbout();
    k.init(this);
    b1.setOnClickListener(k);
  }
}

class ListActivityScreen extends Activity {
  method onCreate(): void {
    l = R.layout.list_screen;
    this.setContentView(l);
    a = R.id.item;
    v = this.findViewById(a);
    j = new GoDetail();
    j.init(this);
    v.setOnClickListener(j);
  }
}

class DetailActivity extends Activity {
  method onCreate(): void {
    l = R.layout.detail_screen;
    this.setContentView(l);
  }
}

class AboutActivity extends Activity {
  method onCreate(): void {
    l = R.layout.about_screen;
    this.setContentView(l);
  }
}

// listeners: the transitions live here, outside the activity classes
class GoList implements OnClickListener {
  field src: HomeActivity;
  method init(a: HomeActivity): void { this.src = a; }
  method onClick(v: View): void {
    s = this.src;
    t = new ListActivityScreen();
    s.startActivity(t);
  }
}
class GoAbout implements OnClickListener {
  field src2: HomeActivity;
  method init(a: HomeActivity): void { this.src2 = a; }
  method onClick(v: View): void {
    s = this.src2;
    t = new AboutActivity();
    s.startActivity(t);
  }
}
class GoDetail implements OnClickListener {
  field src3: ListActivityScreen;
  method init(a: ListActivityScreen): void { this.src3 = a; }
  method onClick(v: View): void {
    s = this.src3;
    t = new DetailActivity();
    s.startActivity(t);
  }
}
|}

let layouts =
  [
    ( "home",
      {|<LinearLayout><Button android:id="@+id/go_list" /><Button android:id="@+id/go_about" /></LinearLayout>|}
    );
    ("list_screen", {|<ListView android:id="@+id/item" />|});
    ("detail_screen", {|<LinearLayout><TextView /></LinearLayout>|});
    ("about_screen", {|<LinearLayout><TextView /></LinearLayout>|});
  ]

let () =
  (* Warnings the libraries log go to stderr. *)
  Logs.set_reporter (Logs_fmt.reporter ~dst:Fmt.stderr ());
  Logs.set_level (Some Logs.Warning);
  let app =
    match Framework.App.of_source ~name:"Transitions" ~code ~layouts with
    | Ok app -> app
    | Error e -> failwith e
  in
  let r = Gator.Analysis.analyze app in
  Fmt.pr "%a@.@." Gator.Analysis.pp_summary r;
  Fmt.pr "activity transition graph:@.";
  List.iter (fun (a, b) -> Fmt.pr "  %s -> %s@." a b) (Gator.Analysis.transitions r);
  (* cross-check against the dynamic semantics *)
  let outcome = Dynamic.Interp.run app in
  Fmt.pr "@.transitions that executed during exploration:@.";
  List.iter (fun (a, b) -> Fmt.pr "  %s -> %s@." a b)
    (List.sort_uniq compare outcome.transitions);
  let coverage = Dynamic.Oracle.check r outcome in
  Fmt.pr "@.%a@." Dynamic.Oracle.pp_coverage coverage;
  (* dot output for the transition graph *)
  Fmt.pr "@.digraph transitions {@.";
  List.iter (fun (a, b) -> Fmt.pr "  %S -> %S;@." a b) (Gator.Analysis.transitions r);
  Fmt.pr "}@."
