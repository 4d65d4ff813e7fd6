(** The constraint graph (Section 4.1) and the solution computed over
    it (Section 4.2).

    Locations ({!Node.t}) carry points-to sets of abstract values; flow
    edges ([->] in the paper) connect locations; the [=>] relationship
    edges of the paper are relations over abstract views: parent-child,
    view=>id, holder=>root, view=>listener, and root=>layout-id.

    The graph stores its solution once, as interner-id rows ({!solution}):
    per-representative value bitsets plus the children, parents, ids,
    roots and listeners rows, which an engine hands over at the end of
    a solve ({!set_solution}).  Every solution reader ({!set_of},
    {!children_of}, {!descendants}, …) decodes those rows on demand.
    The cold relations (inflations, onclick handlers, declared
    fragments, root layouts, transitions) stay structural tables. *)

module VS : Set.S with type elt = Node.value

module View_set : Set.S with type elt = Node.view_abs

module Listener_set : Set.S with type elt = Node.listener_abs * string
(** Registrations: the listener together with the interface name it
    was registered under. *)

module Int_set : Set.S with type elt = int

type edge_kind =
  | E_direct
  | E_cast of string  (** flow through [x = (C) y]; may filter *)

(** An operation node with its connected locations. *)
type op = {
  site : Node.op_site;
  op_recv : Node.t;
  op_args : Node.t list;
  op_out : Node.t option;
}

type t

val create : ?interner:Intern.t -> unit -> t
(** [?interner] pre-seeds the graph's id pools (incremental
    re-extraction: nodes shared with a previous solve keep their
    ids). *)

(** {1 Construction (used by {!Extract})} *)

val fresh_alloc : t -> cls:string -> site:Node.site -> Node.alloc_site

val fresh_op :
  t ->
  kind:Framework.Api.kind ->
  site:Node.site ->
  recv:Node.t ->
  args:Node.t list ->
  out:Node.t option ->
  op

val add_edge : t -> ?kind:edge_kind -> Node.t -> Node.t -> unit
(** Idempotent.  Interns both endpoints and records the edge once, in
    id space: every edge reader ({!succs}, {!locations}, {!pp_dot},
    {!frozen_flow}) decodes that one store, so the graph shown is the
    graph solved. *)

val seed : t -> Node.t -> Node.value -> unit
(** Record an initial value for a location (allocation results, id
    constants, implicit activity instances).  Seeding
    {!Node.V_layout_top} or {!Node.V_view_id_top} flips {!has_top}. *)

val has_top : t -> bool
(** Did any seed introduce an unknown-id marker?  Such graphs solve
    cold only — the warm guard refuses them. *)

(** {1 The solution}

    Rows over interner ids.  A row array may be longer than the ids in
    use; ids past its end have an empty row.  Node ids past [sol_rep]'s
    end are their own representatives. *)

type solution = {
  sol_rep : int array;  (** node id -> representative whose value row it shares *)
  sol_values : Util.Bitset.t option array;  (** representative -> value ids *)
  sol_children : Util.Bitset.t option array;  (** view id -> child view ids *)
  sol_parents : Util.Bitset.t option array;  (** view id -> parent view ids *)
  sol_ids : Util.Bitset.t option array;  (** view id -> rid symbols ({!Intern.rid}) *)
  sol_roots : Util.Bitset.t option array;  (** holder id -> root view ids *)
  sol_listeners : Util.Bitset.t option array;  (** view id -> listener entry ids *)
}

val set_solution : t -> solution -> unit
(** Adopt an engine's final rows without copying.  The rows must be
    over this graph's interner and must not be mutated afterwards
    (captured states and warm solves alias them). *)

val set_of : t -> Node.t -> VS.t
(** Decodes the node's row; empty for a node the interner never saw. *)

val views_of : t -> Node.t -> Node.view_abs list
(** The views in {!set_of}, in decreasing {!Node.compare_view} order. *)

(** {2 Imprecision taint}

    The subset of each location's points-to set whose membership was
    justified (transitively) by an unknown-id marker.  Purely
    diagnostic: solving never branches on taint, and one post-pass
    computes it for both engines.  Invariant:
    [taints_of t n ⊆ set_of t n]. *)

val taints_of : t -> Node.t -> VS.t

val install_taints : t -> Node.t -> VS.t -> unit
(** Wholesale row install (the taint pass, snapshot restore).  An
    empty set clears the row. *)

val tainted_nodes : t -> (Node.t * VS.t) list
(** Every location with a non-empty taint set, in unspecified order. *)

val succs : t -> Node.t -> (edge_kind * Node.t) list
(** Flow successors of a location, newest first; [[]] for a location
    the graph never interned.  Decodes the id store on every call. *)

val succ_table : t -> Node.t -> (edge_kind * Node.t) list
(** {!succs} for a whole solve: decodes every edge once up front, then
    answers lookups from a table (the naive engine's propagation).
    Edges added afterwards are not seen. *)

val seeds : t -> (Node.t * VS.t) list

val reset_sets : t -> unit
(** Drop the solution, the taint plane and the cold relations, back to
    the seeded state (used to re-solve under a different
    configuration). *)

(** {1 Relations}

    The solved relations decode the {!solution} rows; the cold ones
    below ({!add_root_layout} onwards) are structural tables written
    during solving. *)

val children_of : t -> Node.view_abs -> View_set.t

val parents_of : t -> Node.view_abs -> View_set.t

val descendants : t -> include_self:bool -> Node.view_abs -> View_set.t
(** Reflexive-or-strict transitive closure of parent-child, by BFS
    over the rows (the relation may be cyclic). *)

val ids_of_view : t -> Node.view_abs -> Int_set.t

val roots_of_holder : t -> Node.holder -> View_set.t

val holders : t -> Node.holder list
(** Holders with at least one root, sorted by {!Node.compare_holder}. *)

val listeners_of_view : t -> Node.view_abs -> Listener_set.t

val views_with_listeners : t -> Node.view_abs list
(** Views with at least one registration, in unspecified order. *)

val add_root_layout : t -> Node.view_abs -> int -> bool

val layouts_of_root : t -> Node.view_abs -> Int_set.t

val add_onclick : t -> Node.view_abs -> string -> bool
(** Declarative [android:onClick] handler name carried by an inflated
    view. *)

val onclicks_of : t -> Node.view_abs -> string list

val views_with_onclick : t -> Node.view_abs list
(** Views carrying at least one declarative handler — lets the solver
    iterate handlers directly instead of scanning whole hierarchies. *)

val add_declared_fragment : t -> Node.view_abs -> string -> bool
(** Fragment class declared by a [<fragment>] placeholder node. *)

val declared_fragments_of : t -> Node.view_abs -> string list

val views_with_declared_fragments : t -> Node.view_abs list

val add_transition : t -> from_:string -> to_:string -> bool
(** Activity-transition edge (extension: STARTACTIVITY). *)

val transitions : t -> (string * string) list

(** {1 Inflation bookkeeping} *)

val find_inflation : t -> site:Node.site -> layout:string -> Node.view_abs list option

val record_inflation : t -> site:Node.site -> layout:string -> Node.view_abs list -> unit

val inflated_views : t -> Node.view_abs list
(** Every [V_infl] minted so far (Table 1's "views (I)"). *)

(** {1 Cold-relation enumeration (snapshots, warm restarts)}

    Entries of the structural relations, in unspecified order. *)

val inflation_entries : t -> (Node.site * string * Node.view_abs list) list

val onclick_entries : t -> (Node.view_abs * string list) list

val declared_fragment_entries : t -> (Node.view_abs * string list) list

val root_layout_entries : t -> (Node.view_abs * int list) list

(** {1 Inspection} *)

val ops : t -> op list
(** In creation order. *)

(** {1 Relation readers}

    Which view relations an op's rule consults beyond its receiver and
    argument sets; the interned solver re-schedules these ops when the
    relation grows. *)

val reads_children : op -> bool
(** Does the op's rule consult the parent/child relation? *)

val reads_ids : op -> bool

val reads_roots : op -> bool

(** {1 Interned ids (interned solver)}

    The graph hash-conses every node touched by an edge, seed, or op
    into a shared {!Intern.t} as it is built, and stores the flow edges
    at the id level only.  The interned solver therefore freezes into
    CSR arrays with pure integer work — no node is re-hashed at solve
    time. *)

val interner : t -> Intern.t

val node_id : t -> Node.t -> int
(** Dense id of [node], minting one if the node is new. *)

type flow_csr = {
  fc_nodes : int;  (** interned node count at freeze time *)
  fc_row : int array;  (** [fc_nodes + 1] entries; full CSR in insertion order *)
  fc_edst : int array;
  fc_ekind : int array;  (** [-1] = direct, otherwise index into [fc_cast_names] *)
  fc_cast_names : string array;
  fc_rep : int array;
      (** node id -> representative of its direct-edge SCC (the
          smallest member id); sized [fc_nodes] — ids minted after the
          freeze are implicitly their own singleton components *)
  fc_crow : int array;  (** condensed CSR over representatives, [fc_nodes + 1] entries *)
  fc_cdst : int array;  (** destinations, already representatives *)
  fc_ckind : int array;
  fc_scc_count : int;  (** components over all [fc_nodes] nodes (singletons included) *)
  fc_largest_scc : int;  (** size of the largest component; [0] when the graph is empty *)
}

val frozen_flow : t -> flow_csr
(** CSR flow edges over node ids in insertion order, plus the SCC
    condensation of the direct-edge subgraph.  Cast edges stay out of
    the condensation (they filter); after mapping endpoints through
    [fc_rep], intra-component edges are dropped and the rest deduped
    into [fc_crow]/[fc_cdst]/[fc_ckind].  Clone variables
    ({!Node.is_clone_var}) defined by a single direct edge and written
    by nothing else are substituted by their predecessor's
    representative before condensing (their defining edge leaves the
    condensed CSR, [fc_row]/[fc_edst] keep it).  Memoized on the edge count:
    adding an edge invalidates the snapshot, while nodes minted after
    the freeze (views discovered mid-solve) need no rebuild — they have
    no flow edges and act as singleton components. *)

val ops_node_ids : t -> (int * int array * int) array
(** Aligned with {!ops}: per op, (recv id, arg ids, out id or [-1]). *)

val allocs : t -> Node.alloc_site list

val locations : t -> Node.t list
(** Every location mentioned by an edge, seed, set, or op, without
    duplicates, in unspecified order. *)

val edge_count : t -> int

val pp_dot : t Fmt.t
(** Graphviz rendering of the solved graph: locations, op nodes, flow
    edges, and relationship edges (Figures 3-4 style). *)
