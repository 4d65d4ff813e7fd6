(* Section 6 of the paper describes downstream tools that need the set
   of tuples (activity, GUI object, event, handler) — e.g. the
   GUI-model input of concolic test generators, which the paper says
   were constructed manually.  This example derives that model fully
   automatically for a small multi-screen app. *)

let code =
  {|
class MainActivity extends Activity {
  field browse: Button;
  field settings: Button;
  method onCreate(): void {
    l = R.layout.main_screen;
    this.setContentView(l);
    a = R.id.browse;
    b0 = this.findViewById(a);
    b1 = (Button) b0;
    this.browse = b1;
    c = R.id.settings;
    s0 = this.findViewById(c);
    s1 = (Button) s0;
    this.settings = s1;
    j = new OpenBrowser();
    b1.setOnClickListener(j);
    k = new OpenSettings();
    s1.setOnClickListener(k);
    s1.setOnLongClickListener(m);
    m = new ResetSettings();
  }
}

class BrowseActivity extends Activity {
  method onCreate(): void {
    l = R.layout.browse_screen;
    this.setContentView(l);
    a = R.id.items;
    v0 = this.findViewById(a);
    lv = (ListView) v0;
    j = new OpenItem();
    lv.setOnItemClickListener(j);
  }
}

class SettingsActivity extends Activity {
  method onCreate(): void {
    l = R.layout.settings_screen;
    this.setContentView(l);
    a = R.id.volume;
    v0 = this.findViewById(a);
    sb = (SeekBar) v0;
    j = new VolumeChanged();
    sb.setOnSeekBarChangeListener(j);
  }
}

class OpenBrowser implements OnClickListener {
  method onClick(v: View): void { }
}
class OpenSettings implements OnClickListener {
  method onClick(v: View): void { }
}
class ResetSettings implements OnLongClickListener {
  method onLongClick(v: View): void { }
}
class OpenItem implements OnItemClickListener {
  method onItemClick(p: View, v: View, pos: int, row: int): void { }
}
class VolumeChanged implements OnSeekBarChangeListener {
  method onProgressChanged(s: View, p: int, fromUser: int): void { }
  method onStartTrackingTouch(s: View): void { }
  method onStopTrackingTouch(s: View): void { }
}
|}

let layouts =
  [
    ( "main_screen",
      {|<LinearLayout>
          <TextView android:id="@+id/title" />
          <Button android:id="@+id/browse" />
          <Button android:id="@+id/settings" />
        </LinearLayout>|} );
    ( "browse_screen",
      {|<FrameLayout><ListView android:id="@+id/items" /></FrameLayout>|} );
    ( "settings_screen",
      {|<LinearLayout><SeekBar android:id="@+id/volume" /></LinearLayout>|} );
  ]

let () =
  (* Warnings the libraries log go to stderr. *)
  Logs.set_reporter (Logs_fmt.reporter ~dst:Fmt.stderr ());
  Logs.set_level (Some Logs.Warning);
  let app =
    match Framework.App.of_source ~name:"GuiModel" ~code ~layouts with
    | Ok app -> app
    | Error e -> failwith e
  in
  let r = Gator.Analysis.analyze app in
  Fmt.pr "%a@.@." Gator.Analysis.pp_summary r;
  Fmt.pr "GUI model: (activity, view, event, handler) tuples@.";
  let interactions = Gator.Analysis.interactions r in
  List.iter (fun ix -> Fmt.pr "  %a@." Gator.Analysis.pp_interaction ix) interactions;
  (* Per-activity event alphabet: what a test generator must exercise *)
  Fmt.pr "@.Per-activity event alphabet:@.";
  List.iter
    (fun (cls : Jir.Ast.cls) ->
      let events =
        List.filter (fun (ix : Gator.Analysis.interaction) -> ix.ix_activity = cls.c_name) interactions
        |> List.map (fun (ix : Gator.Analysis.interaction) ->
               Framework.Listeners.event_name ix.ix_event)
        |> List.sort_uniq compare
      in
      Fmt.pr "  %-18s {%s}@." cls.c_name (String.concat ", " events))
    (Framework.App.activity_classes app)
