(** Domain-based worker pool for independent batch tasks.

    Batch drivers (corpus table regeneration, multi-app CLI runs, the
    perfbench corpus workload) analyze many applications whose analyses
    share no state; this pool runs them on OCaml 5 domains while
    keeping the observable behavior of a sequential loop:

    - results come back in submission order, regardless of which
      worker finished first;
    - a task that raises is captured as a per-task {!error} (with its
      wall time) instead of killing the batch — the fault-isolation
      posture production batch analyzers need for malformed inputs;
    - [jobs <= 1] (or a single task) runs every task inline in the
      calling domain, in submission order, with no domain spawned —
      the exact sequential path.

    Tasks must be self-contained: they must not share mutable
    structures (in particular [Framework.App.t] values, whose
    hierarchy and layout-package caches are unsynchronized) with other
    concurrently running tasks.  The corpus drivers obey this by
    generating each application inside its own task. *)

type error = {
  err_exn : string;  (** [Printexc.to_string] of the escaping exception *)
  err_backtrace : string;  (** raw backtrace text; may be empty *)
}

type 'a outcome = {
  oc_seconds : float;  (** task wall time, failed or not *)
  oc_result : ('a, error) result;
}

val run_task : (unit -> 'a) -> 'a outcome
(** Run one task inline, capturing its wall time and any escaping
    exception (with backtrace) as an {!error}.  The building block
    {!run} and {!Stream.run} both wrap tasks with. *)

val default_jobs : unit -> int
(** The pool size batch drivers use when no [--jobs] is given:
    [Domain.recommended_domain_count ()] clamped to [\[1, 8\]].  The
    cap of 8 keeps a default run from spawning a domain per core on a
    large host, where every minor collection stops all of them. *)

type t
(** A running pool of worker domains. *)

val create : jobs:int -> t
(** Spawn [max 1 jobs] worker domains blocked on the work queue. *)

val size : t -> int
(** Number of worker domains. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue a raw task.  Escaping exceptions are swallowed (the worker
    survives); use {!run}/{!map} to capture them as values.
    @raise Invalid_argument after {!shutdown}. *)

val wait : t -> unit
(** Block until every submitted task has finished. *)

val shutdown : t -> unit
(** Drain remaining tasks, then join every worker.  Idempotent. *)

val run : jobs:int -> (unit -> 'a) list -> 'a outcome list
(** Run the tasks on a fresh pool (created, drained, and shut down
    internally) and return their outcomes in submission order. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b outcome list
(** [map ~jobs f xs] is [run ~jobs (List.map (fun x () -> f x) xs)]. *)

val value_exn : 'a outcome -> 'a
(** Unwrap a successful outcome.
    @raise Failure with the captured exception text on a failed one. *)
