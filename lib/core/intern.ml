(* Hash-consing interner for the solver's abstract domains.

   Each [Node.value], [Node.view_abs], [Node.t] location, listener
   entry and holder is mapped to a dense integer id the first time it
   is seen; the interned solver engine then keys every hot structure
   (solution sets, delta sets, relation tables, the CSR flow graph) by
   those ids, replacing structural [Set.Make] operations with bitset
   words ([Util.Bitset]).

   Determinism contract: ids are assigned in first-intern order, and
   the interned engine interns from deterministic sources only (the
   ordered [Graph.locations] / [Graph.ops] lists and solver-driven
   discovery, which is itself a deterministic function of the graph).
   Combined with the Pool's apps-built-inside-tasks rule (interners
   are never shared across domains) this keeps counters and outputs
   byte-identical across runs and across [--jobs] levels. *)

module type KEY = sig
  type t

  val equal : t -> t -> bool

  val hash : t -> int

  val dummy : t
  (** fills unused backward-array slots; never exposed *)
end

module Pool (K : KEY) = struct
  module H = Hashtbl.Make (K)

  type t = { fwd : int H.t; mutable back : K.t array; mutable count : int }

  let create () = { fwd = H.create 256; back = Array.make 64 K.dummy; count = 0 }

  let find_opt t k = H.find_opt t.fwd k

  (* Assign the next dense id; the caller has checked absence. *)
  let add t k =
    let id = t.count in
    let n = Array.length t.back in
    if id >= n then begin
      let back = Array.make (2 * n) K.dummy in
      Array.blit t.back 0 back 0 n;
      t.back <- back
    end;
    t.back.(id) <- k;
    H.add t.fwd k id;
    t.count <- id + 1;
    id

  let intern t k = match find_opt t k with Some id -> id | None -> add t k

  let get t id = t.back.(id)

  let count t = t.count
end

let dummy_mid = { Node.mid_cls = ""; mid_name = ""; mid_arity = 0 }

let dummy_alloc = { Node.a_site = { s_in = dummy_mid; s_stmt = 0 }; a_cls = "" }

module Value_pool = Pool (struct
  type t = Node.value

  let equal = Node.equal_value

  let hash = Node.hash_value

  let dummy = Node.V_act ""
end)

module View_pool = Pool (struct
  type t = Node.view_abs

  let equal = Node.equal_view

  let hash = Node.hash_view

  let dummy = Node.V_alloc dummy_alloc
end)

module Node_pool = Pool (struct
  type t = Node.t

  let equal = Node.equal

  let hash = Node.hash

  let dummy = Node.N_field ""
end)

module Listener_pool = Pool (struct
  type t = Node.listener_abs * string

  let equal (l1, i1) (l2, i2) = Node.equal_listener l1 l2 && String.equal i1 i2

  let hash (l, i) = Node.mix (Node.hash_listener l) (Node.hash_string i)

  let dummy = (Node.L_act "", "")
end)

module Holder_pool = Pool (struct
  type t = Node.holder

  let equal = Node.equal_holder

  let hash = Node.hash_holder

  let dummy = Node.H_act ""
end)

module Rid_pool = Pool (struct
  type t = int

  let equal = Int.equal

  let hash = Hashtbl.hash

  let dummy = 0
end)

(* Growable id->id map, [-1] = unset. *)
type iarr = { mutable a : int array }

let iarr_create () = { a = [||] }

let iarr_get m i = if i < Array.length m.a then m.a.(i) else -1

let iarr_set m i v =
  let n = Array.length m.a in
  if i >= n then begin
    let cap = max 64 (max (i + 1) (2 * n)) in
    let a = Array.make cap (-1) in
    Array.blit m.a 0 a 0 n;
    m.a <- a
  end;
  m.a.(i) <- v

type t = {
  values : Value_pool.t;
  views : View_pool.t;
  nodes : Node_pool.t;
  listeners : Listener_pool.t;
  holders : Holder_pool.t;
  rids : Rid_pool.t;  (** raw resource int <-> dense rid symbol *)
  value2view : iarr;  (** value id -> view id when the value is a [V_view], else -1 *)
  view2value : iarr;  (** view id -> id of its [V_view] wrapping (always set) *)
}

let create () =
  {
    values = Value_pool.create ();
    views = View_pool.create ();
    nodes = Node_pool.create ();
    listeners = Listener_pool.create ();
    holders = Holder_pool.create ();
    rids = Rid_pool.create ();
    value2view = iarr_create ();
    view2value = iarr_create ();
  }

(* Values and views intern each other: every view has a canonical
   [V_view] value and vice versa.  The pool entry is installed before
   recursing, so the mutual call terminates by lookup. *)
let rec value t (v : Node.value) =
  match Value_pool.find_opt t.values v with
  | Some id -> id
  | None ->
      let id = Value_pool.add t.values v in
      (match v with
      | Node.V_view w -> iarr_set t.value2view id (view t w)
      | _ -> ());
      id

and view t (w : Node.view_abs) =
  match View_pool.find_opt t.views w with
  | Some id -> id
  | None ->
      let id = View_pool.add t.views w in
      let vid = value t (Node.V_view w) in
      iarr_set t.view2value id vid;
      (* [value] found [V_view w] missing and recursed back here only
         if it allocated the entry itself; either way the cross map
         below is consistent. *)
      iarr_set t.value2view vid id;
      id

let node t n = Node_pool.intern t.nodes n

(* Non-minting lookups, for demand-side callers (a query handle must
   not pollute a solved state's interner with ids the CSR has never
   seen just because a client asked about an unknown node). *)
let find_node t n = Node_pool.find_opt t.nodes n

let find_value t v = Value_pool.find_opt t.values v

let find_view t w = View_pool.find_opt t.views w

let find_holder t h = Holder_pool.find_opt t.holders h

let listener t entry = Listener_pool.intern t.listeners entry

let holder t h = Holder_pool.intern t.holders h

let rid t raw = Rid_pool.intern t.rids raw

let rid_opt t raw = Rid_pool.find_opt t.rids raw

(* Decoders. *)
let value_of t id = Value_pool.get t.values id

let view_of t id = View_pool.get t.views id

let node_of t id = Node_pool.get t.nodes id

let listener_of t id = Listener_pool.get t.listeners id

let holder_of t id = Holder_pool.get t.holders id

let rid_of t sym = Rid_pool.get t.rids sym

(* Cross maps. *)
let view_of_value_id t vid = iarr_get t.value2view vid

let value_of_view_id t wid = iarr_get t.view2value wid

(* Counters for [Solve.stats]. *)
let value_count t = Value_pool.count t.values

let view_count t = View_pool.count t.views

let node_count t = Node_pool.count t.nodes

let listener_count t = Listener_pool.count t.listeners

let holder_count t = Holder_pool.count t.holders

let rid_count t = Rid_pool.count t.rids
