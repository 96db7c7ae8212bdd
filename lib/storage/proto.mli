(** Wire protocol between clients and storage nodes: the operations of
    Figs 4-7 of the paper, plus the broadcast variant of [add]
    (Sec 3.11) where the storage node performs the [alpha_ji]
    multiplication itself.

    A storage node hosts one {e slot} per stripe; every request addresses
    a slot.  Blocks travelling in requests/responses dominate message
    size; {!request_bytes} and {!response_bytes} give the payload sizes
    the simulator charges to the network. *)

(** Unique write identifier [(seq, blk, client)] — the paper's
    [⟨seq, i, p⟩].  [blk] is the stripe-relative index of the data block
    the write targets, which is what [find_consistent]'s per-origin test
    uses. *)
type tid = { seq : int; blk : int; client : int }

val tid_compare : tid -> tid -> int
val tid_to_string : tid -> string

(** Lock mode of a slot: unlocked, partial lock (adds still admitted),
    full lock, or expired (holder crashed). *)
type lmode = Unl | L0 | L1 | Exp

(** Operation mode: valid data, mid-reconstruction, or uninitialized
    garbage (after a fail-remap). *)
type opmode = Norm | Recons | Init

val lmode_to_string : lmode -> string
val opmode_to_string : opmode -> string

(** Outcome of an [add]: applied; rejected because the predecessor write
    has not been seen ([Order]); or rejected for mode/lock/epoch reasons
    ([Fail] — the paper's bottom status). *)
type add_status = Add_ok | Add_order | Add_fail

(** Outcome of [checktid] (Fig 5 lines 43-45). *)
type check_status = Ck_init | Ck_gc | Ck_nochange

(** One retained add from a storage node's per-slot delta log.  [d_dv]
    is the payload as the node applied it; [d_alpha] is the coefficient
    already folded in (the node's own coefficient for unicast adds, [1]
    for broadcast deltas), so a repairer can rescale the entry for a
    different target member.  [d_dblk] is the data block the originating
    write targeted, [d_epoch] the slot epoch the add was applied under. *)
type delta_entry = {
  d_tid : tid;
  d_dblk : int;
  d_epoch : int;
  d_alpha : int;
  d_dv : bytes;
}

type request =
  | Read
  | Read_checked
      (** Verified read: block, sealed integrity record, and current
          epoch in one atomic response, for client-side verification. *)
  | Swap of { v : bytes; ntid : tid }
  | Add of { dv : bytes; ntid : tid; otid : tid option; epoch : int }
  | Add_bcast of { dv : bytes; dblk : int; ntid : tid; otid : tid option; epoch : int }
      (** Broadcast write: [dv = v - w] unscaled; the node multiplies by
          its own coefficient for data block [dblk]. *)
  | Checktid of { ntid : tid; otid : tid }
  | Trylock of lmode
  | Setlock of lmode
  | Get_state
  | Getrecent of lmode
  | Reconstruct of { cset : int list; blk : bytes }
  | Finalize of { epoch : int }
  | Gc_old of tid list
  | Gc_recent of tid list
  | Gc_many of { phase : [ `Old | `Recent ]; slots : (int * tid list) list }
      (** One node's share of a Fig 7 GC phase: for each slot, the tids
          to drop from its oldlist ([`Old], as {!Gc_old}) or to move
          from its recentlist to its oldlist ([`Recent], as
          {!Gc_recent}).  Node-addressed like [Probe]; each entry runs
          the per-slot request, so the per-slot lock and mode checks
          are unchanged.  Answered by [R_gc_many]. *)
  | Probe of { older_than : float }
      (** Monitoring (Sec 3.10): report slots whose recentlist holds an
          entry older than [older_than] seconds (a started-but-unfinished
          write) and slots in [Init] opmode. *)
  | Get_meta
      (** Scrub probe: the node self-checks the slot's digest and
          returns only the verdict — separate-metadata verification,
          no block on the wire. *)
  | Mark_init
      (** Quarantine a member identified as corrupt/stale: demote the
          slot to [Init] so recovery rebuilds it. *)
  | Delta_probe
      (** Delta-repair eligibility probe: epoch, digest self-check,
          applied/tombstoned tids, and delta-log completeness floor,
          without moving any block bytes. *)
  | Get_delta of { since_epoch : int }
      (** Ask an up-to-date member for the logged adds a member stuck at
          [since_epoch] missed.  Served only when the node's delta log is
          complete back to [since_epoch]. *)
  | Apply_delta of {
      entries : delta_entry list;
      absorbed : tid list;
      from_epoch : int;
      to_epoch : int;
    }
      (** Catch an epoch-stale member up in place: XOR the (already
          rescaled) payloads of [entries] it has not yet applied, drop
          the list entries of [absorbed] writes (already applied here
          and folded into the base by a finalize since), then advance
          the slot from [from_epoch] to [to_epoch] and reseal its
          integrity record.  Rejected unless the slot is exactly at
          [from_epoch], unlocked, Norm, and digest-valid. *)

type state_view = {
  st_opmode : opmode;
  st_epoch : int;
      (** the slot's sealed epoch; recovery and degraded reads mask a
          [Norm] member whose epoch trails the newest polled epoch (a
          revived node that missed a finalize) as if it were [Init] *)
  st_recons_set : int list option;
  st_oldlist : tid list;
  st_recentlist : tid list; (** newest first *)
  st_block : bytes option;  (** [None] unless opmode = Norm *)
}

(** What a [Delta_probe] reports: everything a repairer needs to decide
    delta-repair eligibility and compute ship sets, without moving any
    block bytes. *)
type delta_probe = {
  dp_opmode : opmode;
  dp_epoch : int;
  dp_valid : bool;  (** slot digest verifies against its own epoch *)
  dp_recent : tid list;  (** recentlist tids: writes possibly in flight *)
  dp_old : tid list;  (** oldlist tids: completed-everywhere writes *)
  dp_tombs : tid list;  (** GC-dropped tids retained since last seal *)
  dp_tombs_overflow : bool;
      (** the tombstone cap was hit, or a dropped tid was too wide to
          keep; duplicate suppression is no longer sound, so the slot
          cannot be a delta target *)
  dp_log_floor : int;
      (** earliest epoch the delta log is complete back to; a member
          stale at [e] can be served iff [dp_log_floor <= e] *)
  dp_log_bytes : int;
}

type response =
  | R_read of { block : bytes option; lmode : lmode }
  | R_read_checked of {
      block : bytes option;
      meta : Checksum.record option;
      epoch : int;
      lmode : lmode;
    }
  | R_meta of { opmode : opmode; epoch : int; self : Checksum.status option }
      (** [self] is the node's own verification verdict for the slot
          ([None] for [Init] slots, which hold no committed data). *)
  | R_swap of { block : bytes option; epoch : int; otid : tid option; lmode : lmode }
  | R_add of { status : add_status; opmode : opmode; lmode : lmode }
  | R_check of check_status
  | R_trylock of { ok : bool; oldlmode : lmode }
  | R_ack
  | R_state of state_view
  | R_recent of tid list
  | R_reconstruct of { epoch : int }
  | R_gc of { ok : bool }
  | R_gc_many of { busy : int list }
      (** The slots of a [Gc_many] that were locked or not [Norm] and
          so collected nothing; every other slot was collected. *)
  | R_probe of { stale : int list; init : int list }
  | R_delta_probe of delta_probe
  | R_delta of { entries : delta_entry list; to_epoch : int; complete : bool }
      (** [complete] iff the log covered everything since the requested
          epoch; an incomplete answer forces full reconstruction. *)
  | R_delta_applied of { ok : bool; applied : int; epoch : int }

val tid_bytes : int
(** Serialized size we charge for one tid. *)

val delta_entry_bytes : delta_entry -> int
val delta_entries_bytes : delta_entry list -> int
(** Serialized sizes we charge for delta-log entries (payload at its
    real length, control fields at fixed sizes). *)

val request_bytes : request -> int
val response_bytes : response -> int
(** Payload sizes in bytes as charged to the simulated network (blocks at
    their real length, control fields at fixed sizes). *)

val request_tag : request -> string
(** Short stable name used for per-operation message accounting. *)

val pp_tid : Format.formatter -> tid -> unit

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
(** Human-readable one-liners for trace events and checker diagnostics.
    Block payloads are rendered as their byte sizes, never their
    contents. *)
