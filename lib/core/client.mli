(** The AJX client protocol (the paper's primary contribution): READ,
    WRITE with lock-free redundant-block updates, online recovery,
    two-phase garbage collection, and the monitoring probe.

    This module is a {e facade}: the protocol itself lives in the layer
    stack documented in DESIGN.md — {!Session} (RPC retry policy over a
    {!Transport.S}), {!Write_path} (Fig 5), {!Read_path} (Fig 4 and the
    degraded-read extension), {!Recovery} (Fig 6), {!Gc} (Fig 7 and the
    Sec 3.10 monitor) — instrumented through {!Trace} into a
    {!Metrics.t} registry per client.

    All storage interaction goes through a transport, so the same
    protocol code runs over the discrete-event simulator (see
    [Ecs_volume.Shard_cluster]) or immediately in-process for unit
    tests.  Within one stripe, blocks are addressed by {e stripe
    position}: data positions [0 .. k-1], redundant positions
    [k .. n-1]; the transport translates positions to physical nodes
    (rotation, directory remap).

    Common-case cost (paper Fig 1): a READ is one round trip carrying one
    block; a WRITE is one [swap] round trip plus one [add] round trip per
    redundant node (batched according to the configured strategy), with
    no locks taken. *)

type call_result = Transport.call_result
(** Result of one transport RPC — see {!Transport.call_result} for the
    timeout/fail-stop semantics and {!Session} for the retry policy
    applied on top. *)

type t

exception Data_loss of string
(** Alias of {!Session.Data_loss}: recovery could not assemble [k]
    consistent blocks — the failure bounds of Sec 4 were exceeded. *)

exception Stuck of string
(** Alias of {!Session.Stuck}: a retry limit was exhausted — the system
    is outside its configured operating envelope. *)

exception Write_abandoned of string
(** Alias of {!Session.Write_abandoned}: a write gave up because its
    [swap] drained the whole retry budget on a live-but-lossy link, so
    the client never learned the old value (the base of the
    redundant-block deltas).  The write is reported as unfinished; if it
    did land, the stale recentlist entry routes it to monitor-driven
    recovery, which either completes it into the stripe or rolls it back
    — both legal for an unfinished write (Sec 3.1 regular semantics). *)

val of_transport :
  ?sink:Trace.sink ->
  locate:(slot:int -> pos:int -> int) ->
  ?repair_planner:Recovery.planner ->
  Config.t ->
  Rs_code.t ->
  Transport.t ->
  t
(** A client over a first-class transport module, with an optional
    structured trace sink (composed with the client's own metrics
    registry).  [locate] maps a stripe position of a slot to the logical
    member node serving it (see {!Session.create}): it keys the failure
    detector and addresses the GC's per-node batches, so it must agree
    with the transport's own routing (e.g. its {!Layout.node_of}).  The
    code must satisfy [Rs_code.k code = cfg.k] and
    [Rs_code.n code = cfg.n].  @raise Invalid_argument otherwise. *)

val config : t -> Config.t

val metrics : t -> Metrics.t
(** This client's metrics registry (always present; fed by every
    operation). *)

val health : t -> Health.t
(** The session's per-node failure detector: adaptive deadlines,
    Suspect/Down classification, circuit breaker (see {!Session.health}
    for exactly how calls feed and consult it). *)

val read : t -> slot:int -> i:int -> bytes
(** READ data block [i] of stripe [slot] (Fig 4).  One round trip in the
    failure-free case; triggers recovery on an INIT node.  When
    [Config.integrity.verified_reads] is set, routes through
    {!read_verified} instead. *)

val read_verified : t -> slot:int -> i:int -> bytes
(** End-to-end verified READ (see {!Read_path.read_verified}): the data
    node ships block + sealed integrity record + epoch in one response
    and the client re-checks the digest itself; failed checks kick
    recovery and retry, unreachable data nodes fall back to a
    cross-checked degraded decode. *)

val write : t -> slot:int -> i:int -> bytes -> unit
(** WRITE (Fig 5): swap the new value into the data node, then update
    every redundant node with a commutative add.  Safe under concurrent
    writers to the same stripe, including to the same block.  The
    completed tid is enqueued for {!collect_garbage}.
    @raise Write_abandoned on an ambiguous swap timeout (see above). *)

val recover_slot : ?delta:bool -> t -> slot:int -> unit
(** Run the repair procedure on a stripe: delta catch-up when the
    config enables it and the stripe qualifies, full Fig 6 recovery
    otherwise.  Idempotent; safe (and useful) to call while reads,
    writes or other clients' recoveries are in flight.  No-op back-off
    if another client holds the recovery locks.  [~delta:false] skips
    the delta probe — for callers rebuilding onto a known-INIT member
    (e.g. a migration), where the probe can never succeed. *)

val collect_garbage : t -> unit
(** One round of the two-phase GC (Fig 7) over this client's completed
    writes: previously moved tids are discarded, newly completed ones
    move from [recentlist] to [oldlist]. *)

val monitor_once : t -> slots:int list -> unit
(** One pass of the Sec 3.10 monitor: probe every storage node for stale
    unfinished writes and INIT slots, and run recovery on any flagged
    stripe.  [slots] is the universe of in-use stripes, used only to
    bound probe interpretation. *)

val probe : t -> slots:int list -> int list
(** The probe half of {!monitor_once}: the flagged slots, in the order
    it would recover them, so a caller can recover them one by one. *)

(** Health of one stripe as seen by {!verify_slot} (alias of
    {!Read_path.slot_health}). *)
type slot_health = Read_path.slot_health = {
  sh_live : int;        (** nodes that answered and are not INIT *)
  sh_consistent : int;  (** size of the maximal consistent set *)
  sh_init : int;        (** INIT (or unreachable) nodes *)
  sh_healthy : bool;    (** all [n] nodes answered, none INIT, and every
                            block is in the consistent set *)
}

val verify_slot : t -> slot:int -> slot_health
(** Lock-free health check of a stripe: snapshot every node's state and
    run [find_consistent] over it.  An unhealthy-but-recoverable stripe
    (torn by a crashed writer, or holding INIT replacements) is repaired
    by {!recover_slot}; this is the primitive behind {!Scrub}. *)

val read_degraded : t -> slot:int -> i:int -> bytes option
(** Extension beyond the paper: read data block [i] by decoding from any
    [k] mutually-consistent blocks, without locks and without waiting
    for recovery — useful while the data node is crashed or being
    reconstructed.  The consistency test is the same recentlist check
    recovery uses, so a torn stripe is never decoded; returns [None]
    when no [k]-block consistent set is available (caller falls back to
    {!read} or triggers {!recover_slot}).  Costs [n] [get_state] round
    trips, so it is a fallback path, not a fast path. *)

(** Integrity verdict for one stripe (alias of
    {!Read_path.integrity_report}). *)
type integrity_report = Read_path.integrity_report = {
  ir_live : int;  (** members answering with committed (non-INIT) state *)
  ir_checksum : int list;  (** positions whose node self-check failed *)
  ir_stale : int list;
      (** positions the cross-member decode check flagged as
          plausible-but-wrong (quarantined to INIT) *)
  ir_consistent : bool;
      (** every reachable committed member lies on one code stripe *)
}

val check_integrity : t -> slot:int -> integrity_report
(** Scrub primitive (see {!Read_path.check_integrity}): a metadata-only
    self-check probe of every member, then a cross-member consistency
    check that catches same-record rollbacks and quarantines identified
    culprits.  Repair itself is {!recover_slot}. *)

val note_repair : t -> slot:int -> pos:int -> unit
(** Emit {!Trace.Integrity_repaired} for stripe position [pos] — called
    by the scrubber after a recovery rebuilt a member it had flagged, so
    the repair shows up in this client's metrics. *)

val pending_gc : t -> int
(** Completed writes not yet fully garbage-collected (diagnostic). *)

val writes_completed : t -> int
val reads_completed : t -> int
(** Completed top-level operations, from the metrics registry
    ([op.write.count]; [op.read.count + op.degraded_read.count]). *)

val recoveries_run : t -> int
(** Recoveries this client completed (phase 3 finished). *)

val delta_repairs_run : t -> int
(** The subset of {!recoveries_run} resolved by delta repair — stale
    members caught up from a peer's add log instead of rebuilt from [k]
    blocks. *)
