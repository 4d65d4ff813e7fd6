(* Quickstart: analyze the paper's running example (Figure 1, derived
   from ConnectBot) and print every solution fact the paper narrates in
   Sections 2 and 4:

   - the activity's content hierarchy comes from inflating act_console;
   - flow-insensitively, [e] holds both the ViewFlipper and the
     retagged TerminalView; the cast to ViewFlipper filters [f];
   - [g] resolves precisely to the ESC ImageView;
   - the onClick handler's parameter receives that ImageView via the
     SETLISTENER callback modeling;
   - [v] in the handler resolves to the programmatic TerminalView
     through getCurrentView + findViewById + setId + addView;
   - the (activity, view, event, handler) interaction tuple follows. *)

let show r name node = Fmt.pr "%-28s = {%a}@." name
    (Fmt.list ~sep:(Fmt.any ", ") Gator.Node.pp_view)
    (Gator.Analysis.views_at r node)

let () =
  (* Warnings the libraries log go to stderr. *)
  Logs.set_reporter (Logs_fmt.reporter ~dst:Fmt.stderr ());
  Logs.set_level (Some Logs.Warning);
  let app = Corpus.Connectbot.app () in
  let r = Gator.Analysis.analyze app in
  Fmt.pr "%a@.@." Gator.Analysis.pp_summary r;
  Fmt.pr "%-28s = {%a}@." "roots(ConsoleActivity)"
    (Fmt.list ~sep:(Fmt.any ", ") Gator.Node.pp_view)
    (Gator.Analysis.roots_of_activity r "ConsoleActivity");
  let on_create = Gator.Analysis.var ~cls:"ConsoleActivity" ~meth:"onCreate" ~arity:0 in
  show r "e (onCreate)" (on_create "e");
  show r "f (after cast)" (on_create "f");
  show r "g (onCreate)" (on_create "g");
  let on_click = Gator.Analysis.var ~cls:"EscapeButtonListener" ~meth:"onClick" ~arity:1 in
  show r "r (onClick param)" (on_click "r");
  show r "v (onClick, after cast)" (on_click "v");
  Fmt.pr "@.views associated with id console_flip (SETID makes two):@.";
  List.iter
    (fun v -> Fmt.pr "  %a@." Gator.Node.pp_view v)
    (Gator.Analysis.views_with_id r "console_flip");
  Fmt.pr "@.interaction tuples:@.";
  List.iter
    (fun ix -> Fmt.pr "  %a@." Gator.Analysis.pp_interaction ix)
    (Gator.Analysis.interactions r);
  (* the same app also passes the dynamic-semantics oracle *)
  let coverage = Dynamic.Oracle.check r (Dynamic.Interp.run app) in
  Fmt.pr "@.dynamic oracle: %a@." Dynamic.Oracle.pp_coverage coverage
