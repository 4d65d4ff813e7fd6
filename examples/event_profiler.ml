(* Event/interaction profiling (Section 6): the static interaction
   model predicts which (activity, view, event, handler) tuples can
   occur; a run-time exploration then measures which ones actually
   fired.  Tools like A3E use exactly this static model to drive
   exploration toward unexercised handlers.

   This example computes the static model of a corpus app, executes the
   dynamic semantics as the "exploration", and reports coverage. *)

let () =
  (* Warnings the libraries log go to stderr. *)
  Logs.set_reporter (Logs_fmt.reporter ~dst:Fmt.stderr ());
  Logs.set_level (Some Logs.Warning);
  let name = match Sys.argv with [| _; n |] -> n | _ -> "ConnectBot" in
  let app =
    match Corpus.Apps.by_name name with
    | Some spec -> Corpus.Gen.generate spec
    | None -> failwith (Printf.sprintf "unknown corpus app %s (try: %s)" name
                          (String.concat ", " Corpus.Apps.names))
  in
  let r = Gator.Analysis.analyze app in
  let predicted = Gator.Analysis.interactions r in
  let outcome = Dynamic.Interp.run app in
  let fired (ix : Gator.Analysis.interaction) =
    List.exists
      (fun (f : Dynamic.Interp.firing) ->
        f.f_view = ix.ix_view && f.f_event = ix.ix_event && f.f_handler = ix.ix_handler
        && List.mem ix.ix_activity f.f_activities)
      outcome.firings
  in
  let hit, missed = List.partition fired predicted in
  Fmt.pr "%a@.@." Gator.Analysis.pp_summary r;
  Fmt.pr "static interaction model: %d tuples@." (List.length predicted);
  Fmt.pr "fired during exploration: %d@." (List.length hit);
  Fmt.pr "unexercised (exploration targets):@.";
  List.iteri
    (fun i ix -> if i < 12 then Fmt.pr "  %a@." Gator.Analysis.pp_interaction ix)
    missed;
  if List.length missed > 12 then Fmt.pr "  ... and %d more@." (List.length missed - 12);
  let total = List.length predicted in
  if total > 0 then
    Fmt.pr "@.coverage: %.1f%%@." (100.0 *. float_of_int (List.length hit) /. float_of_int total)
