(* Workload [serve]: the query daemon in a forked child process with
   XBMC preloaded.  One client connection drives it in a closed loop with
   a seeded, mostly-read request mix: points-to queries over shuffled
   locations, plus views-of-listener and activities-of-id, and a
   one-statement patch roughly every thousand reads, each followed by a
   query of the node it added.

   The daemon runs without a state directory.  With one, every patch
   rewrites the 1.6 MB snapshot and waits on the disk, and on a small VM
   that wait drifts by a quarter within an hour, more than any bound can
   absorb; the traced run still measures Snapshot.save, on a file.

   The traced run cannot see inside the daemon, so it replays a fixed
   prefix of the same request sequence in-process: once through
   [Daemon.handle] (dispatch cost without the socket), and once through
   the public functions the daemon calls, with a span around each. *)

open Measure
module J = Util.Json
module P = Server.Protocol
module N = Gator.Node

let app_name = "XBMC"

let config = Gator.Config.default

type request =
  | Points_to of N.t
  | Views_of_listener of N.listener_abs
  | Activities_of_id of string
  | Patch of Corpus.Patch.edit * J.t  (** the edit, and its wire form *)

let is_patch = function Patch _ -> true | _ -> false

let to_wire = function
  | Points_to node -> P.R_points_to { app = app_name; node; budget = None }
  | Views_of_listener listener -> P.R_views_of_listener { app = app_name; listener }
  | Activities_of_id id -> P.R_activities_of_id { app = app_name; id }
  | Patch (_, edit) -> P.R_patch { app = app_name; edits = J.List [ edit ] }

let payload r = J.to_string (P.request_to_json (to_wire r))

(* ------------------------------------------------------------------ *)
(* The request sequence *)

(* What the generator draws from: the daemon's own corpus app, and the
   locations, registered listeners, view ids and activity methods of its
   base analysis. *)
type vocabulary = {
  base : Framework.App.t;
  locations : N.t array;
  listeners : N.listener_abs array;
  ids : string array;
  methods : (string * string * int * string array) array;
      (** activity class, method, arity, locals other than [this] *)
}

let vocabulary () =
  let base = Corpus.Gen.generate (Option.get (Corpus.Apps.by_name app_name)) in
  let r = Gator.Analysis.analyze ~config base in
  let graph = r.Gator.Analysis.graph in
  let listeners =
    List.concat_map
      (fun v -> List.map fst (Gator.Analysis.listeners_of_view r v))
      (Gator.Graph.views_with_listeners graph)
    |> List.sort_uniq N.compare_listener
  in
  let ids =
    List.filter_map
      (function N.V_infl { N.v_vid = Some n; _ } -> Some n | _ -> None)
      (Gator.Graph.inflated_views graph)
    |> List.sort_uniq String.compare
  in
  let methods =
    List.concat_map
      (fun (c : Jir.Ast.cls) ->
        List.map
          (fun (m : Jir.Ast.meth) ->
            let locals = List.filter (( <> ) Jir.Ast.this_var) (Jir.Ast.meth_vars m) in
            (c.c_name, m.m_name, List.length m.m_params, Array.of_list locals))
          c.c_methods)
      (Framework.App.activity_classes base)
  in
  {
    base;
    locations = Array.of_list (Gator.Graph.locations graph);
    listeners = Array.of_list listeners;
    ids = Array.of_list ids;
    methods = Array.of_list methods;
  }

let added_classes = [| "android.widget.Button"; "android.widget.TextView"; "android.widget.ImageView" |]

(* A generator of the infinite request sequence; equal seeds give equal
   sequences. *)
let sequence voc ~seed =
  let rng = Util.Prng.create (seed * 7919 + 17) in
  let order = Array.copy voc.locations in
  for i = Array.length order - 1 downto 1 do
    let j = Util.Prng.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let cursor = ref 0 and until_patch = ref (800 + Util.Prng.int rng 401) and patches = ref 0 in
  let follow_up = ref None in
  fun () ->
    match !follow_up with
    | Some r ->
        follow_up := None;
        r
    | None ->
        if !until_patch = 0 then begin
          until_patch := 800 + Util.Prng.int rng 401;
          incr patches;
          let cls, meth, arity, vars = voc.methods.(Util.Prng.int rng (Array.length voc.methods)) in
          let pick () = vars.(Util.Prng.int rng (Array.length vars)) in
          (* half the patches allocate a fresh view, half copy between
             two locals of the method, which re-solves the components
             the copy reaches *)
          let copy = Util.Prng.bool rng && Array.length vars >= 2 in
          let stmt, wire_stmt =
            match if copy then Some (pick (), pick ()) else None with
            | Some (dst, src) when dst <> src ->
                (Jir.Ast.Copy (dst, src), ("copy", J.List [ J.String dst; J.String src ]))
            | _ ->
                let var = Printf.sprintf "bench_added_%d" !patches in
                let view_cls = added_classes.(Util.Prng.int rng (Array.length added_classes)) in
                (Jir.Ast.New (var, view_cls), ("new", J.List [ J.String var; J.String view_cls ]))
          in
          let edit = Corpus.Patch.Add_stmt { cls; meth; arity; stmt } in
          let wire =
            J.Obj
              [
                ("edit", J.String "add_stmt");
                ("cls", J.String cls);
                ("meth", J.String meth);
                ("arity", J.Int arity);
                ("stmt", J.Obj [ wire_stmt ]);
              ]
          in
          let target = match stmt with Jir.Ast.Copy (dst, _) | Jir.Ast.New (dst, _) -> dst | _ -> "" in
          follow_up :=
            Some (Points_to (N.N_var ({ N.mid_cls = cls; mid_name = meth; mid_arity = arity }, target)));
          Patch (edit, wire)
        end
        else begin
          decr until_patch;
          let k = Util.Prng.int rng 100 in
          if k < 90 || Array.length voc.listeners = 0 || Array.length voc.ids = 0 then begin
            let node = order.(!cursor mod Array.length order) in
            incr cursor;
            Points_to node
          end
          else if k < 95 then Views_of_listener voc.listeners.(Util.Prng.int rng (Array.length voc.listeners))
          else Activities_of_id voc.ids.(Util.Prng.int rng (Array.length voc.ids))
        end

(* ------------------------------------------------------------------ *)
(* The daemon child *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

type daemon = { pid : int; client : Server.Client.t }

let children = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

(* Fork the daemon, preload the app, and wait for the first ping. *)
let start_daemon (p : params) i =
  let tag = Printf.sprintf "%d-%d" (Unix.getpid ()) i in
  let socket = Filename.concat p.dir ("d" ^ tag ^ ".sock") in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        try
          Server.Daemon.run ~preload:[ app_name ]
            (Server.Daemon.create ~log:false ~socket ());
          0
        with _ -> 1
      in
      Unix._exit code
  | pid -> (
      children := pid :: !children;
      match Server.Client.connect_retry ~attempts:2000 ~delay:0.002 socket with
      | Error e -> failwith ("daemon did not start: " ^ e)
      | Ok client -> (
          match Server.Client.rpc_raw client {|{"method":"ping"}|} with
          | Ok _ -> { pid; client }
          | Error e -> failwith ("daemon did not answer: " ^ e)))

(* The daemon's cumulative count of queries its fuel budget truncated;
   [-1] when the stats request fails. *)
let budget_fallbacks d =
  let stats = Printf.sprintf {|{"method":"stats","app":%S}|} app_name in
  match Result.map J.of_string (Server.Client.rpc_raw d.client stats) with
  | Ok (Ok j) -> (
      match Option.bind (J.member "ok" j) (J.member "budget_fallbacks") with
      | Some (J.Int n) -> n
      | _ -> -1)
  | _ -> -1

let stop_daemon d =
  ignore (Server.Client.rpc_raw d.client {|{"method":"shutdown"}|});
  Server.Client.close d.client;
  reap d.pid

(* Program set-up: start the program, fork the daemon, preload and
   answer the first ping.  The daemon is started [setups] times; the
   last one serves the run. *)
let setup (p : params) =
  let start = program_start p.setups in
  let rec go i acc =
    let t0 = now_ns () in
    let d = start_daemon p i in
    let acc = seconds_since t0 :: acc in
    if i + 1 >= p.setups then (d, start +. median acc)
    else begin
      stop_daemon d;
      go (i + 1) acc
    end
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Socket runs *)

type exchange = {
  req : request;
  response : (string, string) result;
  seconds : float;  (** round trip *)
  finished : float;  (** seconds since the run started *)
}

let drive d next ~stop =
  let log = ref [] and n = ref 0 and t0 = now_ns () in
  while not (stop !n (seconds_since t0)) do
    let req = next () in
    let body = payload req in
    let t = now_ns () in
    let response = Server.Client.rpc_raw d.client body in
    let seconds = seconds_since t in
    log := { req; response; seconds; finished = seconds_since t0 } :: !log;
    incr n
  done;
  Array.of_list (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Reference answers *)

let render pp v = Fmt.str "%a" pp v

(* Answers of one app state, from an independent cold analysis. *)
type reference = {
  r : Gator.Analysis.t;
  listener_views : (N.listener_abs, string list) Hashtbl.t;
  id_activities : (string, string list) Hashtbl.t;
}

let reference app =
  { r = Gator.Analysis.analyze ~config app; listener_views = Hashtbl.create 16; id_activities = Hashtbl.create 16 }

let expected ref_ = function
  | Points_to node -> List.map (render N.pp_value) (Gator.Analysis.values_at ref_.r node)
  | Views_of_listener l -> (
      match Hashtbl.find_opt ref_.listener_views l with
      | Some v -> v
      | None ->
          let views =
            List.filter
              (fun v ->
                List.exists
                  (fun (l', _) -> N.compare_listener l l' = 0)
                  (Gator.Analysis.listeners_of_view ref_.r v))
              (Gator.Graph.views_with_listeners ref_.r.graph)
            |> List.sort N.compare_view |> List.map (render N.pp_view)
          in
          Hashtbl.replace ref_.listener_views l views;
          views)
  | Activities_of_id id -> (
      match Hashtbl.find_opt ref_.id_activities id with
      | Some a -> a
      | None ->
          let with_id = Gator.Analysis.views_with_id ref_.r id in
          let acts =
            List.filter_map
              (fun (cls : Jir.Ast.cls) ->
                let shown = Gator.Analysis.views_of_activity ref_.r cls.c_name in
                if List.exists (fun v -> List.exists (fun w -> N.compare_view v w = 0) shown) with_id
                then Some cls.c_name
                else None)
              (Framework.App.activity_classes ref_.r.app)
            |> List.sort_uniq String.compare
          in
          Hashtbl.replace ref_.id_activities id acts;
          acts)
  | Patch _ -> []

(* Every answer against a cold analysis of the app state it was
   answered at: reads must equal the reference at the current
   generation, and every patch must move to the next generation. *)
let check ~corrupt voc f exchanges =
  let app = ref voc.base and generation = ref 0 and ref_ = ref None in
  let current () =
    match !ref_ with
    | Some r -> r
    | None ->
        let r = reference !app in
        ref_ := Some r;
        r
  in
  Array.iteri
    (fun i ex ->
      match ex.response with
      | Error e -> failf f "request %d: transport error: %s" i e
      | Ok body -> (
          match J.of_string body with
          | Error e -> failf f "request %d: unparsable response: %s" i e
          | Ok j -> (
              let gen = match J.member "generation" j with Some (J.Int g) -> g | _ -> -1 in
              match (ex.req, J.member "ok" j) with
              | _, None -> failf f "request %d: error response %s" i body
              | Patch (edit, _), Some _ -> (
                  match Corpus.Patch.apply !app [ edit ] with
                  | Error e -> failf f "request %d: reference patch failed: %s" i e
                  | Ok patched ->
                      app := patched;
                      ref_ := None;
                      incr generation;
                      if gen <> !generation then
                        failf f "request %d: patch answered at generation %d, expected %d" i gen !generation)
              | req, Some answer ->
                  let values = expected (current ()) req in
                  let values = if corrupt then "corrupted" :: values else values in
                  let want = J.List (List.map (fun s -> J.String s) values) in
                  if gen <> !generation then
                    failf f "request %d: answered at generation %d, expected %d" i gen !generation
                  else if not (J.equal answer want) then
                    failf f "request %d: answer differs from the cold analysis: %s" i body)))
    exchanges

(* ------------------------------------------------------------------ *)
(* In-process replays (traced run) *)

let dispatch_replay (p : params) requests =
  let d = Server.Daemon.create ~log:false ~socket:(Filename.concat p.dir "unused.sock") () in
  ignore (Server.Daemon.handle d (J.to_string (P.request_to_json (P.R_load app_name))));
  let times =
    Array.map
      (fun req ->
        let body = payload req in
        snd (timed (fun () -> ignore (Server.Daemon.handle d body))))
      requests
  in
  times

type replay_stats = {
  mutable expanded : int;
  mutable memo_hits : int;
  mutable budget_fallbacks : int;
  mutable answers : (int * string list) list;  (** read index, rendered answer *)
}

let retire st q =
  let s = Gator.Query.stats q in
  st.expanded <- st.expanded + s.Gator.Query.q_expanded;
  st.memo_hits <- st.memo_hits + s.Gator.Query.q_memo_hits;
  st.budget_fallbacks <- st.budget_fallbacks + s.Gator.Query.q_budget_fallbacks

(* The daemon's work on each request, through the public functions it
   calls; one operation span per request. *)
let library_replay ~state requests =
  rm_rf state;
  Sys.mkdir state 0o755;
  let snap = Filename.concat state (app_name ^ ".snap.json") in
  let app0 = Corpus.Gen.generate (Option.get (Corpus.Apps.by_name app_name)) in
  let _, solved0 = Gator.Incremental.analyze_solved ~config app0 in
  Gator.Snapshot.save solved0 snap;
  let app = ref app0 and solved = ref solved0 in
  let query = ref (Gator.Query.create ~hierarchy:app0.Framework.App.hierarchy solved0) in
  let st = { expanded = 0; memo_hits = 0; budget_fallbacks = 0; answers = [] } in
  let times =
    Array.mapi
      (fun i req ->
        snd
          (timed (fun () ->
               match req with
               | Patch (edit, _) ->
                   Span.operation ~id:i "patch" (fun () ->
                       let patched =
                         match Span.record "patch.apply" (fun () -> Corpus.Patch.apply !app [ edit ]) with
                         | Ok a -> a
                         | Error e -> failwith ("patch does not apply: " ^ e)
                       in
                       let _, next =
                         Span.record "incremental"
                           ~counters:(fun ((r : Gator.Analysis.t), _) ->
                             let s = r.stats in
                             [
                               ("dirty_comps", float s.Gator.Solve.dirty_comps);
                               ("reused_comps", float s.Gator.Solve.reused_comps);
                             ])
                           (fun () -> Gator.Incremental.analyze_incremental ~config ~prev:!solved patched)
                       in
                       let q =
                         Span.record "query.create" (fun () ->
                             Gator.Query.create ~hierarchy:patched.Framework.App.hierarchy next)
                       in
                       Span.record "snapshot.save"
                         ~counters:(fun () -> [ ("bytes", float (Unix.stat snap).Unix.st_size) ])
                         (fun () -> Gator.Snapshot.save next snap);
                       retire st !query;
                       app := patched;
                       solved := next;
                       query := q)
               | Points_to node ->
                   let answer =
                     Span.operation ~id:i "read" (fun () ->
                         match Span.record "query" (fun () -> Gator.Query.points_to !query node) with
                         | Some values -> List.map (render N.pp_value) values
                         | None -> [])
                   in
                   st.answers <- (i, answer) :: st.answers
               | Views_of_listener l ->
                   let answer =
                     Span.operation ~id:i "read" (fun () ->
                         List.map (render N.pp_view)
                           (Span.record "query" (fun () -> Gator.Query.views_of_listener !query l)))
                   in
                   st.answers <- (i, answer) :: st.answers
               | Activities_of_id id ->
                   let answer =
                     Span.operation ~id:i "read" (fun () ->
                         Span.record "query" (fun () -> Gator.Query.activities_of_id !query id))
                   in
                   st.answers <- (i, answer) :: st.answers)))
      requests
  in
  retire st !query;
  rm_rf state;
  (times, st)

(* Requests replayed by the traced run: a fixed prefix, ending with the
   follow-up query of its last patch, so its work counters are exact for
   a seed. *)
let trace_patches = 4

let trace_prefix voc ~seed =
  let next = sequence voc ~seed in
  let rec go acc patches =
    let r = next () in
    match acc with
    | last :: _ when patches = trace_patches && is_patch last -> Array.of_list (List.rev (r :: acc))
    | _ -> go (r :: acc) (if is_patch r then patches + 1 else patches)
  in
  go [] 0

let split requests times =
  let reads = ref [] and patches = ref [] in
  Array.iteri
    (fun i t -> if is_patch requests.(i) then patches := t :: !patches else reads := t :: !reads)
    times;
  (!reads, !patches)

let total a = Array.fold_left ( +. ) 0.0 a

(* The traced run: the prefix over the socket, through [Daemon.handle],
   and through the library untraced and traced. *)
let layers (p : params) requests =
  let d = start_daemon p 0 in
  let exchanges =
    Fun.protect
      ~finally:(fun () -> stop_daemon d)
      (fun () ->
        let i = ref 0 in
        drive d
          (fun () ->
            incr i;
            requests.(!i - 1))
          ~stop:(fun n _ -> n >= Array.length requests))
  in
  let rpc_reads, rpc_patches = split requests (Array.map (fun e -> e.seconds) exchanges) in
  let disp_reads, disp_patches = split requests (dispatch_replay p requests) in
  let state = Filename.concat p.dir (Printf.sprintf "replay-%d" (Unix.getpid ())) in
  let untraced, _ = library_replay ~state requests in
  let traced, st = Span.traced (fun () -> library_replay ~state requests) in
  let spans = Span.collect () in
  let npatches = List.length rpc_patches and nreads = List.length rpc_reads in
  let count span key = Span.counter_sum spans span key in
  let dirty = count "incremental" "dirty_comps" and reused = count "incremental" "reused_comps" in
  let metrics =
    snd (Layers.op_accounting ~spans ~op_names:[ "read"; "patch" ])
    @ Layers.per_op ~spans ~ops:nreads ~scale:1e3 Layers.self_ns [ ("query", "query.us") ]
    @ Layers.per_op ~spans ~ops:npatches ~scale:1e6 Layers.self_ns
        [
          ("patch.apply", "patch.apply_ms");
          ("incremental", "incremental.ms");
          ("query.create", "query.create_ms");
          ("snapshot.save", "snapshot.save_ms");
        ]
    @ [
        ("rpc.query_us", mean rpc_reads *. 1e6);
        ("rpc.patch_ms", mean rpc_patches *. 1e3);
        ("dispatch.query_us", mean disp_reads *. 1e6);
        ("dispatch.patch_ms", mean disp_patches *. 1e3);
        ("query.expanded", float st.expanded);
        ("query.memo_hit_ratio", Layers.ratio (float st.memo_hits) (float (st.memo_hits + st.expanded)));
        ("query.budget_fallbacks", float st.budget_fallbacks);
        ("incremental.dirty_comps", dirty);
        ("incremental.reused_comps", reused);
        ("incremental.warm_ratio", Layers.ratio reused (dirty +. reused));
        ("snapshot.bytes", count "snapshot.save" "bytes" /. float npatches);
        ("trace.overhead_pct", 100.0 *. ((total traced /. total untraced) -. 1.0));
      ]
  in
  (exchanges, st, metrics, spans)

(* The library replay must give the daemon's answers, and never fall
   back on its budget. *)
let check_replay f exchanges st =
  if st.budget_fallbacks <> 0 then failf f "query budget fallbacks: %d" st.budget_fallbacks;
  List.iter
    (fun (i, answer) ->
      match exchanges.(i).response with
      | Ok body -> (
          let want = J.List (List.map (fun s -> J.String s) answer) in
          match J.of_string body with
          | Ok j when Option.fold ~none:false ~some:(J.equal want) (J.member "ok" j) -> ()
          | _ -> failf f "request %d: library replay answers differently from the daemon" i)
      | Error _ -> ())
    st.answers

(* Requests per wall second, median over the windows that each start
   at a patch and run to the next one. *)
let throughput exchanges =
  let windows = ref [] and count = ref 0 and opened = ref None in
  Array.iter
    (fun ex ->
      if is_patch ex.req then begin
        let start = ex.finished -. ex.seconds in
        Option.iter (fun t -> windows := (float !count /. (start -. t)) :: !windows) !opened;
        count := 0;
        opened := Some start
      end;
      incr count)
    exchanges;
  match !windows with
  | [] ->
      let last = exchanges.(Array.length exchanges - 1) in
      float (Array.length exchanges) /. last.finished
  | ws -> median ws

let run (p : params) =
  let voc = vocabulary () in
  let f = failures () in
  if p.trace then begin
    let requests = trace_prefix voc ~seed:p.seed in
    let exchanges, st, found, spans = layers p requests in
    check ~corrupt:p.corrupt voc f exchanges;
    check_replay f exchanges st;
    let attempted = Array.length exchanges + List.length st.answers in
    ( {
        attempted;
        failed = f.count;
        failures = List.rev f.messages;
        metrics = Layers.complete Layers.per_layer found;
        detail = [ metric "requests" "count" (float (Array.length requests)) ];
      },
      spans )
  end
  else begin
    let d, setup_s = setup p in
    let exchanges, rss, fallbacks =
      Fun.protect
        ~finally:(fun () -> stop_daemon d)
        (fun () ->
          let patches = ref 0 in
          let next = sequence voc ~seed:p.seed in
          let counting () =
            let r = next () in
            if is_patch r then incr patches;
            r
          in
          (* at least one patch, so both latency families are measured *)
          let run = drive d counting ~stop:(fun _ elapsed -> elapsed >= p.seconds && !patches > 0) in
          (run, rss_peak_mb (string_of_int d.pid), budget_fallbacks d))
    in
    if fallbacks <> 0 then failf f "daemon reports %d query budget fallbacks" fallbacks;
    check ~corrupt:p.corrupt voc f exchanges;
    let reads, patches = split (Array.map (fun e -> e.req) exchanges) (Array.map (fun e -> e.seconds) exchanges) in
    let ms = List.map (fun s -> s *. 1e3) in
    let reads = ms reads and patches = ms patches in
    let n = Array.length exchanges in
    let metrics =
      Layers.complete Layers.end_to_end
        [
          ("setup_s", setup_s);
          ("ops_per_s", throughput exchanges);
          ("op_ms_p50", percentile reads 0.5);
          ("op_ms_p90", percentile reads 0.9);
          ("heavy_ms_p50", percentile patches 0.5);
          ("rss_peak_mb", rss);
        ]
    in
    let detail =
      [
        metric "query_us_p50" "us" (percentile reads 0.5 *. 1e3);
        metric "query_us_p90" "us" (percentile reads 0.9 *. 1e3);
        metric "patch_ms_p50" "ms" (percentile patches 0.5);
        metric "patch_ms_p90" "ms" (percentile patches 0.9);
        metric "reads" "count" (float (List.length reads));
        metric "patches" "count" (float (List.length patches));
      ]
    in
    ({ attempted = n; failed = f.count; failures = List.rev f.messages; metrics; detail }, [])
  end
