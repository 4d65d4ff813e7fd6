(** Client queries over a captured solution.

    A {!t} is a read-only view of a {!Solve.solved}: every answer
    decodes the forward fixpoint's interned rows — the points-to rows
    through the same {!Graph} reader [Analysis.values_at] uses, the
    registration and view-hierarchy rows directly.  Nothing is derived
    at query time, so an answer equals the forward projection by
    construction; [test/test_query.ml] checks the relation queries
    against a cold {!Analysis}.

    A query handle never mutates the solved state and never grows its
    interner (unknown keys use non-minting lookups), so handles over
    the same state are safe to interleave with reads; re-solving the
    app requires a fresh handle. *)

type t

type stats = {
  mutable q_queries : int;  (** point queries answered *)
  mutable q_memo_hits : int;
      (** always [0]: answers are read from the solved rows, so there
          is no memo; kept so existing readers of the record compile *)
  mutable q_expanded : int;
      (** always [0]: no representative is ever re-derived at query
          time *)
  mutable q_budget_fallbacks : int;
      (** always [0]: a query has no budget to run out of *)
}

val create : hierarchy:Jir.Hierarchy.t -> Solve.solved -> t
(** O(1).  [hierarchy] is ignored: the solved rows already carry the
    cast filtering the solve applied. *)

val stats : t -> stats
(** Cumulative counters since {!create}. *)

val points_to : t -> Node.t -> Node.value list option
(** Values reaching the location; [None] when the node was never
    interned (unknown to this app's graph — the protocol maps it to an
    [unknown-node] error).  Results are sorted by
    {!Node.compare_value}, matching [Analysis.values_at]. *)

val views_of_listener : t -> Node.listener_abs -> Node.view_abs list
(** Views the listener is registered on (any interface), sorted by
    {!Node.compare_view}: the inverse of [Analysis.listeners_of_view],
    read from the solved registration rows. *)

val activities_of_id : t -> string -> string list
(** Activity classes whose displayable view hierarchy (roots plus
    descendants) contains a view carrying the named id, sorted;
    unknown id names resolve to the empty list, matching the forward
    projection.  Views whose id came from [SetId (v, ⊤)] carry the
    unknown-id sentinel and match every queried name, known or not. *)
