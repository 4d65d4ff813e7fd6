(* In-memory span recorder for the traced benchmark run.

   A span is one call into a layer's public function: a name, an id, a
   parent span, the id of the operation it belongs to, monotonic start
   and end times, and the allocation of the calling domain over the
   call.  Spans are kept in per-domain buffers and collected once at the
   end; nothing is written while the measured work runs.  Disabled
   recording costs one branch per span. *)

type t = {
  name : string;
  id : int;
  parent : int;  (** [-1] for a root span *)
  op : int;  (** operation id shared by every span of one operation; [-1] outside one *)
  tid : int;  (** recording domain *)
  t0 : int64;  (** monotonic ns *)
  t1 : int64;
  words : float;  (** words allocated by the domain over the span (minor + major - promoted) *)
  counters : (string * float) list;  (** work counts the layer reported *)
}

let now_ns () = Monotonic_clock.now ()

let enabled = ref false

let next_id = Atomic.make 0

type buffer = {
  mutable spans : t list;
  mutable stack : int list;  (** open span ids, innermost first *)
  mutable op : int;
}

(* Every domain's buffer is registered once, so [collect] can reach
   buffers of pool workers that have since been joined. *)
let registry = ref []

let registry_lock = Mutex.create ()

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = { spans = []; stack = []; op = -1 } in
      Mutex.protect registry_lock (fun () -> registry := b :: !registry);
      b)

(* Gc.counters reads the calling domain's counters; the program-wide
   Gc.quick_stat would bill a span for the other workers' allocation. *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let record ?(counters = fun _ -> []) name f =
  if not !enabled then f ()
  else begin
    let b = Domain.DLS.get buffer_key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match b.stack with p :: _ -> p | [] -> -1 in
    b.stack <- id :: b.stack;
    let w0 = allocated () in
    let t0 = now_ns () in
    let finish result =
      let t1 = now_ns () in
      let w1 = allocated () in
      b.stack <- List.tl b.stack;
      b.spans <-
        {
          name;
          id;
          parent;
          op = b.op;
          tid = (Domain.self () :> int);
          t0;
          t1;
          words = w1 -. w0;
          counters = (match result with Some r -> counters r | None -> []);
        }
        :: b.spans
    in
    match f () with
    | r ->
        finish (Some r);
        r
    | exception e ->
        finish None;
        raise e
  end

(* The root span of one operation: every span recorded inside it,
   transitively, carries [id] as its operation id. *)
let operation ~id name f =
  if not !enabled then f ()
  else begin
    let b = Domain.DLS.get buffer_key in
    let saved = b.op in
    b.op <- id;
    Fun.protect ~finally:(fun () -> b.op <- saved) (fun () -> record name f)
  end

let collect () =
  Mutex.protect registry_lock (fun () ->
      List.concat_map (fun b -> b.spans) !registry
      |> List.sort (fun a b -> Int.compare a.id b.id))

let reset () =
  Mutex.protect registry_lock (fun () ->
      List.iter
        (fun b ->
          b.spans <- [];
          b.stack <- [])
        !registry)

(* Run [f] with recording on, from empty buffers. *)
let traced f =
  reset ();
  enabled := true;
  Fun.protect ~finally:(fun () -> enabled := false) f

let duration_ns s = Int64.to_float (Int64.sub s.t1 s.t0)

(* Chrome trace-event JSON ("X" complete events, microsecond times),
   loadable in Perfetto or chrome://tracing. *)
let to_chrome spans =
  let module J = Util.Json in
  let base = List.fold_left (fun m s -> if Int64.compare s.t0 m < 0 then s.t0 else m) Int64.max_int spans in
  let us t = Int64.to_float (Int64.sub t base) /. 1e3 in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("name", J.String s.name);
                   ("ph", J.String "X");
                   ("pid", J.Int 1);
                   ("tid", J.Int s.tid);
                   ("ts", J.Float (us s.t0));
                   ("dur", J.Float (us s.t1 -. us s.t0));
                   ( "args",
                     J.Obj
                       ([
                          ("id", J.Int s.id);
                          ("parent", J.Int s.parent);
                          ("op", J.Int s.op);
                          ("words", J.Float s.words);
                        ]
                       @ List.map (fun (k, v) -> (k, J.Float v)) s.counters) );
                 ])
             spans) );
      ("displayTimeUnit", J.String "ms");
    ]

let write_chrome path spans =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Util.Json.to_string (to_chrome spans)))

(* Per-name self time (ns) and allocation (words): a span's duration
   minus the durations of its direct children.  Root spans of
   operations are reported under their own name, so their self time is
   the operation's unattributed time. *)
type self = { calls : int; self_ns : float; self_words : float; total_ns : float }

let self_times spans =
  let child_ns = Hashtbl.create 64 and child_words = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let add tbl v =
          Hashtbl.replace tbl s.parent (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.parent))
        in
        add child_ns (duration_ns s);
        add child_words s.words
      end)
    spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let get tbl = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.id) in
      let prev =
        Option.value ~default:{ calls = 0; self_ns = 0.0; self_words = 0.0; total_ns = 0.0 }
          (Hashtbl.find_opt acc s.name)
      in
      Hashtbl.replace acc s.name
        {
          calls = prev.calls + 1;
          self_ns = prev.self_ns +. duration_ns s -. get child_ns;
          self_words = prev.self_words +. s.words -. get child_words;
          total_ns = prev.total_ns +. duration_ns s;
        })
    spans;
  acc

(* Spans nest when every child lies inside its parent's interval, on
   the same domain and operation. *)
let nesting_violations spans =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  List.filter
    (fun s ->
      s.parent >= 0
      &&
      match Hashtbl.find_opt by_id s.parent with
      | None -> true
      | Some p ->
          Int64.compare s.t0 p.t0 < 0
          || Int64.compare s.t1 p.t1 > 0
          || s.tid <> p.tid || s.op <> p.op)
    spans

let counter_sum spans name key =
  List.fold_left
    (fun acc s ->
      if String.equal s.name name then
        acc +. Option.value ~default:0.0 (List.assoc_opt key s.counters)
      else acc)
    0.0 spans
