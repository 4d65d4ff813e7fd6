(* Run the dynamic semantics on the Figure 1 example and verify the
   static solution covers every observed behavior. *)
let () =
  (* Warnings the libraries log go to stderr. *)
  Logs.set_reporter (Logs_fmt.reporter ~dst:Fmt.stderr ());
  Logs.set_level (Some Logs.Warning);
  let app = Corpus.Connectbot.app () in
  let r = Gator.Analysis.analyze app in
  let outcome = Dynamic.Interp.run app in
  Fmt.pr "dynamic: %d observations, %d registrations, %d firings, truncated=%b@."
    (List.length outcome.observations)
    (List.length outcome.registrations)
    (List.length outcome.firings) outcome.truncated;
  List.iter (fun ob -> Fmt.pr "  %a@." Dynamic.Interp.pp_observation ob) outcome.observations;
  let coverage = Dynamic.Oracle.check r outcome in
  Fmt.pr "%a@." Dynamic.Oracle.pp_coverage coverage;
  if not (Dynamic.Oracle.is_sound coverage) then exit 1
