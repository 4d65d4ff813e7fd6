(** Lazy layout inflation (rules INFLATE1/INFLATE2, Section 3.2.1 /
    4.2): when a layout id reaches an inflation operation, mint one
    inflated-view abstraction per layout node.  Minting is memoized per
    (operation, layout), making the solver's op transfers idempotent.
    The subtree's parent-child and view=>id facts are returned to the
    calling engine, which owns the solved relations; the cold facts
    (the inflation memo, android:onClick handlers, <fragment>
    placeholders) are recorded in the graph. *)

(** The facts one layout node contributes. *)
type minted = {
  m_view : Node.view_abs;
  m_children : Node.view_abs list;  (** its children, sorted by {!Node.compare_view} *)
  m_id : int option;  (** its resolved [android:id] *)
}

val instantiate :
  Graph.t ->
  resources:Layouts.Resource.t ->
  site:Node.site ->
  Layouts.Layout.def ->
  Node.view_abs list * minted list
(** Returns the minted views in preorder — the root first — and, on
    the first call for this (site, layout), each view's facts in the
    same order.  Later calls return the same views and no facts: the
    engine imported them the first time. *)

val root : Node.view_abs list -> Node.view_abs
(** Head of a non-empty preorder list.  @raise Invalid_argument on
    empty (a layout always has a root). *)
