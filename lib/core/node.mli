(** Constraint-graph node and abstract-value definitions (Section 4.1
    of the paper).

    Design note: the paper draws allocation sites, id constants, and
    activity objects as graph nodes with outgoing flow edges.  Here
    those become {e abstract values} seeded into the points-to set of
    the location they flow into; the graph proper contains only
    locations (variables, fields, returns).  The two formulations
    compute the same [flowsTo] relation; this one avoids second-class
    "generator" nodes in the propagation core. *)

(** Identity of a method: defining class + name + arity. *)
type mid = { mid_cls : string; mid_name : string; mid_arity : int }

val mid : string -> Jir.Ast.meth_key -> mid

val mid_of_meth : string -> Jir.Ast.meth -> mid

val pp_mid : mid Fmt.t

(** A statement position: enclosing method + 0-based index in its
    body.  Sites are structural so that the static analysis and the
    dynamic semantics independently construct {e equal} abstractions
    for the same program point — the property the soundness tests rely
    on. *)
type site = { s_in : mid; s_stmt : int }

val pp_site : site Fmt.t

(** An allocation site [x = new C()]. *)
type alloc_site = {
  a_site : site;
  a_cls : string;  (** the instantiated class [C] *)
}

(** An operation site (one per recognized Android API call). *)
type op_site = { o_site : site; o_kind : Framework.Api.kind }

(** An inflated-view abstraction: one per (inflation operation, layout
    node) — the paper's "fresh set of graph nodes at each inflation
    site", subscripted [z.y] in Figure 4. *)
type infl_site = {
  v_site : site;  (** the inflating operation's site *)
  v_layout : string;  (** layout name *)
  v_path : int list;  (** layout-node path within the layout tree *)
  v_cls : string;  (** view class of the layout node *)
  v_vid : string option;  (** view-id name, if the node declares one *)
}

(** Abstract views: inflated or explicitly allocated. *)
type view_abs = V_infl of infl_site | V_alloc of alloc_site

(** Abstract values propagated by the analysis. *)
type value =
  | V_view of view_abs
  | V_act of string  (** the implicit instance of an activity class *)
  | V_obj of alloc_site  (** non-view allocation (listeners, dialogs, helpers) *)
  | V_layout_id of int
  | V_view_id of int
  | V_layout_top
      (** a layout id the analysis cannot resolve ([R.layout.?]):
          matches every layout in the package *)
  | V_view_id_top
      (** a view id the analysis cannot resolve ([R.id.?]): matches
          every candidate id in scope *)

val top_view_id_raw : int
(** Sentinel raw resource id ([-1]) standing for an unknown id in view
    id rows ([SetId(v, ⊤)]); never collides with a real resource id. *)

(** Abstract listeners: allocated listener objects, or activities
    acting as their own listeners (the "general case" the paper's
    implementation handles). *)
type listener_abs = L_alloc of alloc_site | L_act of string

(** Content holders — receivers of [setContentView]: activities, or
    (extension) dialog objects. *)
type holder = H_act of string | H_dialog of alloc_site

(** Graph locations. *)
type t =
  | N_var of mid * string  (** local variable of a method *)
  | N_field of string  (** field-based: one location per field name *)
  | N_ret of mid  (** return value of a method *)

val class_of_view : view_abs -> string

(** {1 Clone variables}

    Context-sensitive extraction inlines a callee body once per call
    site and renames each callee local per clone. *)

val clone_var : string -> int -> string
(** [clone_var x n] is the name of local [x] in clone [n]: ["x#n"].
    The lexer rejects ['#'] in identifiers, so a clone never collides
    with a source local. *)

val is_clone_var : string -> bool
(** Was this local name minted by {!clone_var}? *)

val menu_site : string -> alloc_site
(** The implicit options-menu object of the named activity class (menu
    extension); a synthetic allocation site shared by the static
    analysis and the dynamic semantics. *)

val menu_owner : alloc_site -> string option
(** Inverse of {!menu_site}: the owning activity, when the site is an
    implicit options menu. *)

val menu_item_site : site -> alloc_site
(** The MenuItem abstraction minted by a [Menu.add] operation site. *)

val declared_fragment_site : string -> infl_site -> alloc_site
(** The implicit instance of a [<fragment android:name="F" />] placed
    at the given inflated placeholder node. *)

val view_of_value : value -> view_abs option

(** {1 Comparisons}

    Explicit, field-by-field orderings for everything the solver keys
    sets and tables on.  They reproduce the ordering [Stdlib.compare]
    gave these concrete representations (fields and constructors in
    declaration order), so set iteration order is unchanged. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val hash : t -> int

val compare_mid : mid -> mid -> int

val compare_site : site -> site -> int

val compare_alloc : alloc_site -> alloc_site -> int

val compare_view : view_abs -> view_abs -> int

val compare_value : value -> value -> int

val compare_listener : listener_abs -> listener_abs -> int

val compare_holder : holder -> holder -> int

val compare_op_site : op_site -> op_site -> int

val equal_view : view_abs -> view_abs -> bool

val equal_value : value -> value -> bool

val equal_listener : listener_abs -> listener_abs -> bool

val equal_holder : holder -> holder -> bool

(** {1 Hashes}

    Explicit hashes paired with the explicit equalities, for hashed
    containers (the interner pools, the graph's dedup tables); the
    polymorphic hash caps its traversal of nested records. *)

val mix : int -> int -> int
(** FNV-1a style combinator used by all the hashes below. *)

val hash_string : string -> int

val hash_mid : mid -> int

val hash_site : site -> int

val hash_alloc : alloc_site -> int

val hash_view : view_abs -> int

val hash_value : value -> int

val hash_listener : listener_abs -> int

val hash_holder : holder -> int

val pp : t Fmt.t

val pp_value : value Fmt.t

val pp_view : view_abs Fmt.t

val pp_alloc : alloc_site Fmt.t

val pp_listener : listener_abs Fmt.t

val pp_holder : holder Fmt.t

val pp_op_site : op_site Fmt.t
