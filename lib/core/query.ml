(* Client queries over a captured solution (ROADMAP
   "analysis-as-a-service").

   A [Query.t] is a read-only view of a [Solve.solved].  The forward
   fixpoint's interned rows are the answer: points-to queries decode
   the node's value row through [Graph.set_of] over the captured
   graph, the reader [Analysis.values_at] uses; the relation queries
   below read the registration and view-hierarchy rows by id.  No
   solver runs and no interner id is minted. *)

type stats = {
  mutable q_queries : int;
  mutable q_memo_hits : int;
  mutable q_expanded : int;
  mutable q_budget_fallbacks : int;
}

type t = { sd : Solve.solved; stats : stats }

let create ~hierarchy:_ sd =
  { sd; stats = { q_queries = 0; q_memo_hits = 0; q_expanded = 0; q_budget_fallbacks = 0 } }

let stats t = t.stats

(* {1 Point queries} *)

(* [find_node] only tells an unknown node from a known one; [set_of]
   looks the node up again in the same interner, so both agree on what
   is unknown.  The second hash lookup is the price of decoding through
   the one reader [Analysis.values_at] also uses. *)
let points_to t node =
  match Intern.find_node t.sd.Solve.sd_it node with
  | None -> None
  | Some _ ->
      t.stats.q_queries <- t.stats.q_queries + 1;
      Some (Graph.VS.elements (Graph.set_of t.sd.Solve.sd_graph node))

(* {1 Relation queries}

   These read the solved relation rows (view hierarchy, id
   registrations, listener registrations) by id — no solver runs, no
   interner growth. *)

let row rows i = if i >= 0 && i < Array.length rows then rows.(i) else None

let views_of_listener t l =
  let it = t.sd.Solve.sd_it in
  (* entry ids whose listener abstraction matches, over every interface *)
  let entries = Util.Bitset.create () in
  for eid = 0 to Intern.listener_count it - 1 do
    let labs, _iface = Intern.listener_of it eid in
    if Node.equal_listener labs l then ignore (Util.Bitset.add entries eid)
  done;
  if Util.Bitset.is_empty entries then []
  else begin
    let acc = ref [] in
    let rows = t.sd.Solve.sd_listeners in
    for wid = Intern.view_count it - 1 downto 0 do
      match row rows wid with
      | Some b when Util.Bitset.intersects b entries -> acc := Intern.view_of it wid :: !acc
      | _ -> ()
    done;
    List.sort Node.compare_view !acc
  end

(* Displayable views of a holder: roots plus all their descendants
   (BFS over the solved child rows, include_self). *)
let displayable_bits t hid =
  let acc = Util.Bitset.create () in
  let pending = Queue.create () in
  (match row t.sd.Solve.sd_roots hid with
  | None -> ()
  | Some roots ->
      Util.Bitset.iter (fun wid -> if Util.Bitset.add acc wid then Queue.add wid pending) roots);
  while not (Queue.is_empty pending) do
    let wid = Queue.pop pending in
    match row t.sd.Solve.sd_children wid with
    | None -> ()
    | Some kids ->
        Util.Bitset.iter (fun k -> if Util.Bitset.add acc k then Queue.add k pending) kids
  done;
  acc

let activities_of_id t name =
  let it = t.sd.Solve.sd_it in
  let row_of raw =
    match Intern.rid_opt it raw with
    | None -> None
    | Some sym -> (
        match row t.sd.Solve.sd_by_id sym with
        | Some b when not (Util.Bitset.is_empty b) -> Some b
        | _ -> None)
  in
  let concrete =
    match
      Layouts.Resource.find_view_id (Layouts.Package.resources t.sd.Solve.sd_package) name
    with
    | None -> None
    | Some raw -> row_of raw
  in
  (* A view whose id came from [SetId (v, ⊤)] carries the sentinel row:
     its concrete id is unknown, so it matches every queried name. *)
  let with_id =
    match (concrete, row_of Node.top_view_id_raw) with
    | None, None -> None
    | (Some _ as b), None | None, (Some _ as b) -> b
    | Some a, Some b ->
        let u = Util.Bitset.copy a in
        Util.Bitset.union_delta ~into:u b ~on_new:(fun _ -> ());
        Some u
  in
  match with_id with
  | None -> []
  | Some with_id ->
      let acc = ref [] in
      List.iter
        (fun hid ->
          match Intern.holder_of it hid with
          | Node.H_act a ->
              if Util.Bitset.intersects (displayable_bits t hid) with_id then acc := a :: !acc
          | Node.H_dialog _ -> ())
        t.sd.Solve.sd_holder_ids;
      List.sort_uniq String.compare !acc
