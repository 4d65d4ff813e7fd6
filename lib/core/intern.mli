(** Hash-consing interner for the solver's abstract domains.

    Each {!Node.value}, {!Node.view_abs}, {!Node.t} location, listener
    entry and holder is mapped to a dense integer id the first time it
    is seen; the interned solver engine then keys every hot structure
    (solution sets, delta sets, relation tables, the CSR flow graph) by
    those ids, replacing structural [Set.Make] operations with bitset
    words ({!Util.Bitset}).

    One interner belongs to one graph (and to the solved states and
    re-extractions that share its ids); nothing about it is global.
    Every pool is a plain hash table plus a dense decode array.

    Determinism contract: ids are assigned in first-intern order, and
    the interned engine interns from deterministic sources only (the
    ordered [Graph.locations] / [Graph.ops] lists and solver-driven
    discovery, which is itself a deterministic function of the graph).
    Combined with the Pool's apps-built-inside-tasks rule (interners
    are never shared across domains) this keeps counters and outputs
    byte-identical across runs and across [--jobs] levels. *)

type t

val create : unit -> t
(** A fresh interner with empty pools. *)

(** {1 Interning (minting)}

    Each call returns the dense id for the key, assigning the next id
    on first sight.  Values and views intern each other: interning a
    view also interns its canonical [V_view] wrapping and vice versa,
    keeping the {!view_of_value_id}/{!value_of_view_id} cross maps
    total. *)

val value : t -> Node.value -> int

val view : t -> Node.view_abs -> int

val node : t -> Node.t -> int

val listener : t -> Node.listener_abs * string -> int
(** Listener entries are keyed by (abstraction, interface name). *)

val holder : t -> Node.holder -> int

val rid : t -> int -> int
(** Raw resource int -> dense rid symbol. *)

(** {1 Non-minting lookups}

    Demand-side callers (query handles, protocol parsers, the
    {!Graph} solution decoders) must not grow a solved state's
    interner just because a client named an unknown key. *)

val find_node : t -> Node.t -> int option

val find_value : t -> Node.value -> int option

val find_view : t -> Node.view_abs -> int option

val find_holder : t -> Node.holder -> int option

val rid_opt : t -> int -> int option

(** {1 Decoders}

    Partial inverses of the interning functions; ids must have been
    minted by this interner. *)

val value_of : t -> int -> Node.value

val view_of : t -> int -> Node.view_abs

val node_of : t -> int -> Node.t

val listener_of : t -> int -> Node.listener_abs * string

val holder_of : t -> int -> Node.holder

val rid_of : t -> int -> int

(** {1 Cross maps} *)

val view_of_value_id : t -> int -> int
(** Value id -> view id when the value is a [V_view], else [-1]. *)

val value_of_view_id : t -> int -> int
(** View id -> id of its [V_view] wrapping (always set). *)

(** {1 Counters} (for {!Solve.stats} and snapshot sizing)

    Ids are dense, so [0 .. count-1] enumerates a pool. *)

val value_count : t -> int

val view_count : t -> int

val node_count : t -> int

val listener_count : t -> int

val holder_count : t -> int

val rid_count : t -> int
