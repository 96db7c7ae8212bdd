(** The storage-node state machine — the "thin server" of the paper.

    A node hosts one {e slot} per stripe, each holding the stripe block
    this node is responsible for plus the protocol metadata of Figs 4-6:
    [opmode], [lmode] (+ lock-holder id), [epoch], [recentlist],
    [oldlist], and [recons_set].  Every remote procedure is a
    non-blocking state transition implemented by {!handle}; there is no
    server-side inter-procedure coordination, which is the paper's
    "simple storage nodes" claim (Sec 6.4).

    {b Lock expiry.}  The paper's nodes expire a lock "upon failure" of
    its holder (fail-stop failures are detectable).  Here the node
    consults a [client_failed] oracle whenever it observes a held lock,
    which realizes the same behaviour without background threads.

    {b Fail-remap.}  A node created with [init:`Garbage] starts every
    slot in [Init] opmode with arbitrary contents, modelling the fresh
    replacement node of Sec 3.5.

    {b Integrity.}  Every slot carries a sealed {!Checksum.record} —
    separate metadata digesting the current block — refreshed on every
    mutation.  With [self_check] on (the default) the node re-verifies
    the digest before serving [Read] and [Get_state]; a failing slot
    answers as if it held nothing, so the unchanged recovery machinery
    quarantines and rebuilds rotted members. *)

type t

val create :
  ?alpha_for:(slot:int -> dblk:int -> int) ->
  ?client_failed:(int -> bool) ->
  ?h:int ->
  ?self_check:bool ->
  ?on_integrity_fail:(slot:int -> Checksum.status -> unit) ->
  ?delta_log_cap:int ->
  ?tombs_cap:int ->
  now:(unit -> float) ->
  block_size:int ->
  init:[ `Zeroed | `Garbage ] ->
  unit ->
  t
(** [alpha_for] gives this node's erasure-code coefficient for data block
    [dblk] of stripe [slot]; it is required to serve broadcast adds and
    to tag delta-log entries with their folded coefficient (without it
    the node still works, but never qualifies as a delta-repair source).
    [client_failed] is the failure detector (defaults to "nobody ever
    fails").  [h] selects the GF(2^h) bulk kernel used to apply adds
    (default 8; must match the client's code).  [now] supplies the
    node-local clock used to timestamp recentlist entries.
    [on_integrity_fail] is the fault layer's observer: invoked each time
    a self-check fails while serving ([Read], [Get_state], [Get_meta]),
    so injected-fault detection times can be recorded node-side.
    [delta_log_cap] bounds the per-slot delta-repair log in bytes
    (default 64 KiB; 0 disables logging entirely) and [tombs_cap] the
    per-slot tombstone count (default 512); exceeding either, or a tid
    too wide for a tombstone (seq ≥ 2{^32}, blk ≥ 2{^16} or client
    ≥ 2{^14}), only narrows delta-repair eligibility, never
    correctness.

    {b Buffer ownership.}  The node applies adds in place and avoids
    block copies on read and swap: a [Read]/[Swap] response may alias
    node-internal state, and a swapped-in payload becomes node-owned.
    Callers must treat returned blocks as immutable and must not reuse
    a [Swap] payload buffer after the call.  (Data-slot blocks are only
    ever replaced wholesale, never mutated in place, so aliased reads
    stay stable.) *)

val handle : t -> caller:int -> slot:int -> Proto.request -> Proto.response
(** Serve one remote procedure call on a slot.  [caller] identifies the
    invoking client (lock ownership, expiry).  [Probe] and [Gc_many]
    are node-wide and ignore [slot]; [Gc_many] serves each of its
    entries as the per-slot [Gc_old]/[Gc_recent] request. *)

val slot_count : t -> int
(** Number of slots this node has materialized. *)

val quarantine_inflight : t -> int
(** Crash-recovery rejoin hygiene: demote to [Init] every slot caught
    mid-reconstruction ([Recons]) — its bytes are a torn mix only a
    rebuild can fix.  Slots with in-flight recentlist entries keep
    their state: if the write was rolled back while the node was away,
    the rollback's recovery left this member epoch-stale (masked from
    reads and polls), and the delta path's orphan check forces a full
    rebuild for any held write its source cannot account for.  Returns
    the number of slots quarantined. *)

val overhead_bytes : t -> int
(** Protocol metadata bytes currently held beyond block contents —
    the Sec 6.5 space-overhead measurement. *)

val overhead_bytes_per_slot : t -> float
(** [overhead_bytes] averaged over materialized slots (0 if none). *)

(** {2 Integrity fault injection}

    At-rest faults below the protocol, for the fault layer and tests.
    Both honor the buffer-ownership contract: the stored block is
    pointer-replaced with a doctored copy, never mutated in place. *)

val corrupt_block : t -> slot:int -> xors:(int * char) list -> bool
(** Silent bit rot: XOR the masks into the stored block, leaving the
    integrity record untouched.  Guaranteed to really change the bytes
    (cancelling masks fall back to flipping byte 0).  [false] when the
    slot holds no committed data (non-NORM). *)

type snapshot
(** A committed block captured together with its sealed record. *)

val snapshot_slot : t -> slot:int -> snapshot option
(** Capture a NORM slot's block + metadata for a later rollback. *)

val rollback_slot : t -> slot:int -> snapshot -> bool
(** Stale-but-well-formed fault: restore a previously captured block
    {e and} its record.  The result is internally consistent, so it is
    detected only by the epoch check (when recovery finalized in
    between) or by a cross-member decode check. *)

(** Test/diagnostic accessors (read-only views). *)

val peek_block : t -> slot:int -> bytes

val peek_meta : t -> slot:int -> Checksum.record
(** The slot's current sealed integrity record. *)

val slot_status : t -> slot:int -> Checksum.status
(** Node-local verification verdict for the slot, as [Get_meta] would
    report it. *)

val peek_opmode : t -> slot:int -> Proto.opmode
val peek_lmode : t -> slot:int -> Proto.lmode
val peek_epoch : t -> slot:int -> int
val peek_recentlist : t -> slot:int -> Proto.tid list
val peek_oldlist : t -> slot:int -> Proto.tid list

val peek_dlog : t -> slot:int -> Proto.tid list
(** Tids currently retained in the slot's delta-repair log, newest
    first. *)

val peek_dlog_bytes : t -> slot:int -> int
val peek_dlog_floor : t -> slot:int -> int
(** Byte footprint and completeness floor of the slot's delta log: the
    log holds every add applied under epochs >= the floor. *)

val peek_tombs : t -> slot:int -> Proto.tid list
(** GC-dropped tids retained for delta-repair duplicate suppression
    since the slot's last seal. *)

val oldest_recent_age : t -> now:float -> float option
(** Age of the oldest recentlist entry across all slots — what the
    monitoring mechanism (Sec 3.10) inspects to detect unfinished
    writes.  [None] if all recentlists are empty. *)

val slots_in_opmode : t -> Proto.opmode -> int list
(** Slots currently in the given opmode (monitor probe for INIT). *)
