(** Caller-helping domain pool: the executor behind the parallel
    transport's [pfor].

    [run] submits a batch of thunks; pool workers and the {e calling
    domain itself} race to claim them (an atomic next-index counter), so

    - [workers = 0] degenerates to sequential in-caller execution;
    - nested [run] from inside a thunk cannot deadlock — the inner
      caller drains whatever nobody else claimed, then waits only for
      indices some worker is actively executing;
    - the pool never blocks on itself: thunks may block on actor
      replies (the storage workers never wait on this pool, so the
      wait graph stays acyclic).

    If thunks raise, the first exception (in completion order) is
    re-raised in the caller after {e all} thunks have finished — the
    barrier always joins, matching the sequential [pfor] contract
    closely enough for the protocol's retry logic (which never leans on
    partial-batch state). *)

type t

val create : workers:int -> t
(** Spawn [workers] pool domains ([0] is valid: everything then runs on
    callers).  @raise Invalid_argument on negative [workers]. *)

val run : t -> (unit -> unit) list -> unit
(** Execute all thunks, helping from the calling domain; returns when
    every thunk has finished.  Safe from any domain, including pool
    workers themselves.  @raise the first exception a thunk raised.
    @raise Invalid_argument if the pool was shut down. *)

val shutdown : t -> unit
(** Join all pool domains.  Idempotent.  Outstanding [run]s finish
    first (their batches were already queued or are drained by their
    callers). *)
