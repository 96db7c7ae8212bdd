(** Garbage collection (Fig 7) and the monitor probe (Sec 3.10).

    The GC layer owns the client's two outstanding-tid lists and drives
    the two-phase protocol that keeps recentlists short without ever
    removing the information recovery needs: a tid moves
    recentlist->oldlist only once every node acknowledged the write, and
    is dropped from oldlists only one full round later.  {!monitor_once}
    probes every node for stale recentlist entries and INIT blocks and
    hands the flagged slots to {!Recovery}.

    Each {!collect} and {!monitor_once} invocation runs under its own
    trace context; per-phase batch sizes and per-node probe results are
    emitted as trace events. *)

type t

val create : recovery:Recovery.t -> Session.t -> t

val completed : t -> slot:int -> Proto.tid -> unit
(** Enqueue a write's tid (returned by {!Write_path.write}) for
    collection. *)

val pending : t -> int
(** Tids still in either phase of the pipeline. *)

val collect : t -> unit
(** Run one two-phase GC round over everything outstanding (Fig 7).
    Unacknowledged tids stay queued for the next round. *)

val monitor_once : t -> slots:int list -> unit
(** Probe every node for writes older than [Config.stale_write_age] and
    for INIT blocks, and run recovery on the flagged slots ([slots] is
    the universe filter; [[]] means "any"). *)

val probe : t -> slots:int list -> int list
(** The probe half of {!monitor_once}: the slots it would recover, in
    the order it would recover them. *)
