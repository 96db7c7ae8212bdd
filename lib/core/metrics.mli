(** Metrics registry fed by the trace layer.

    A registry is a {!Trace.sink}: plug {!sink} into a client (or share
    one registry across every client of a cluster) and it accumulates
    per-operation counters and latency aggregates.

    What this layer owes its users: a {e fixed schema} — every counter
    and latency key is pre-registered at {!create}, so two registries
    fed by identical event streams render identically ({!to_json} is
    byte-deterministic under a fixed simulation seed), and CI can assert
    on field presence even for quiet runs.

    {b Domain safety.}  Counters are atomics and latency aggregates are
    CAS-updated, and no event ever mutates the key tables after
    {!create}: one registry may be fed concurrently from many domains
    (the parallel transport's clients) without losing updates or
    taking a lock.

    Counter keys:
    - [op.<kind>.count] / [op.<kind>.failed] — completed / aborted
      top-level operations per {!Trace.op_kind};
    - [rpc.retries] / [rpc.giveups] — resends after a timeout, and calls
      whose whole retry budget drained;
    - [write.giveups] — writes abandoned on an ambiguous swap timeout;
    - [write.order_rejections] — adds rejected with ORDER status;
    - [recovery.phase.<phase>] — recovery phase transitions (Fig 6);
    - [gc.batches] / [gc.tids_acked] — two-phase GC rounds (Fig 7).

    Latency keys are the op kinds; each aggregates count / total / max
    seconds over successful operations. *)

type t

val create : unit -> t
val sink : t -> Trace.sink

val counter : t -> string -> int
(** 0 for unknown keys. *)

val counters : t -> (string * int) list
(** All counters, sorted by key. *)

type latency = { l_count : int; l_total : float; l_max : float }

val latency : t -> Trace.op_kind -> latency

val merge_into : dst:t -> t -> unit
(** Add every counter and latency aggregate of [t] into [dst]. *)

val to_json : ?indent:string -> t -> string
(** Deterministic JSON object: [{"counters": {...}, "latency_s": {...}}]
    with keys sorted; [indent] prefixes every line (default [""]). *)
