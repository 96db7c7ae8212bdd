(** Structured trace context threaded through every protocol layer.

    Each top-level client operation (read, write, recovery, GC round,
    monitor pass, ...) is assigned a {!ctx} carrying a client-unique op
    id; every layer reports what it is doing as a typed {!event} against
    that context.  Events flow into a pluggable {!sink} — the metrics
    registry ({!Metrics.sink}), the simulator's stats/note plumbing, or
    a test harness recording the exact sequence.

    What this layer owes its users: emitting an event has no protocol
    side effects (sinks must not call back into the stack), and under a
    deterministic environment the event sequence is deterministic, so a
    seeded simulation replays its trace byte-for-byte. *)

(** Kind of top-level operation a context belongs to. *)
type op_kind =
  | Op_read
  | Op_write
  | Op_degraded_read
  | Op_recovery
  | Op_gc
  | Op_monitor
  | Op_verify
  | Op_verified_read
  | Op_scrub

val op_kind_to_string : op_kind -> string
val all_op_kinds : op_kind list

(** Per-operation trace context.  [parent] links a nested operation
    (e.g. a recovery triggered from inside a write) to its originator. *)
type ctx = {
  op_id : int;
  client : int;
  kind : op_kind;
  slot : int;  (** [-1] when the op is not stripe-addressed (GC, monitor) *)
  parent : int option;
}

(** Phases of the Fig 6 recovery engine, in the order a successful
    solo recovery traverses them: [Ph_lock] (phase 1 lock sweep),
    [Ph_collect] (phase 2 state gathering / [find_consistent]),
    [Ph_decode] and [Ph_finalize] (phase 3), then [Ph_done].
    [Ph_backoff] replaces everything after [Ph_lock] when another
    recoverer holds locks; [Ph_adopt] replaces [Ph_collect] when a
    crashed recoverer's [recons_set] is adopted; [Ph_weaken] marks each
    L1->L0 lock-weakening round inside [Ph_collect].  [Ph_delta] marks
    a delta-repair attempt (catching up an epoch-stale member by
    shipping its missed adds) made before any lock is taken; on success
    it is followed directly by [Ph_done]. *)
type recovery_phase =
  | Ph_delta
  | Ph_lock
  | Ph_backoff
  | Ph_adopt
  | Ph_collect
  | Ph_weaken
  | Ph_decode
  | Ph_finalize
  | Ph_done

val recovery_phase_to_string : recovery_phase -> string
val all_recovery_phases : recovery_phase list

type swap_outcome = Sw_applied | Sw_locked | Sw_node_down

(** Typed protocol events.  RPC-level events carry the request so sinks
    can render it with {!Proto.pp_request}. *)
type event =
  | Op_begin
  | Op_end of { ok : bool; elapsed : float }
  | Rpc_retry of { req : Proto.request; attempt : int; backoff : float }
      (** One timed-out attempt about to be resent after [backoff]. *)
  | Rpc_give_up of { req : Proto.request; attempts : int }
      (** The whole retry budget drained; [`Timeout] surfaces to the
          protocol layer. *)
  | Swap_result of { outcome : swap_outcome; tries : int }
  | Add_order_rejected of { pos : int; round : int }
      (** A redundant node rejected an add with ORDER status (Fig 5). *)
  | Write_give_up of { reason : string }
  | Recovery_phase of recovery_phase
  | Gc_batch of { phase : [ `Recent | `Old ]; sent : int; acked : int }
      (** One two-phase-GC round over this client's lists (Fig 7). *)
  | Probe_result of { node : int; stale : int; init : int }
      (** A monitor probe (Sec 3.10) flagged [stale] + [init] slots. *)
  | Health_transition of { node : int; from_ : string; to_ : string }
      (** The failure detector moved [node] between {!Health.state}s
          (rendered as lowercase state names, e.g. ["healthy"],
          ["suspect"], ["down"], ["probation"]). *)
  | Hedge_launched of { node : int }
      (** A read of a Suspect data [node] armed a degraded-path hedge. *)
  | Hedge_won of { node : int }
      (** The hedge finished before the primary read did. *)
  | Breaker_fast_fail of { node : int }
      (** The circuit breaker answered [`Node_down] for a quarantined
          node without touching the network. *)
  | Verified_read of { ok : bool }
      (** One end-to-end checked read completed; [ok] iff no member had
          to be caught and repaired along the way. *)
  | Integrity_detected of { pos : int; fault : [ `Checksum | `Stale ] }
      (** Stripe member [pos] was caught holding bad state: bit rot or
          corrupt metadata ([`Checksum]), or internally consistent but
          old state ([`Stale] — the rollback fault). *)
  | Integrity_repaired of { pos : int }
      (** Member [pos] was rebuilt after an integrity detection. *)
  | Repair_result of { delta : bool; bytes_read : int; bytes_shipped : int }
      (** One slot repair completed.  [delta] is true when an epoch-stale
          member was caught up by shipping only its missed adds, false
          for a full Fig 6 reconstruction; [bytes_read] / [bytes_shipped]
          are the protocol wire bytes the repair pulled from source
          members and pushed to rebuilt ones. *)
  | Custom of string
      (** Escape hatch for user instrumentation. *)

type sink = ctx -> event -> unit

val null_sink : sink
val compose : sink list -> sink

val legacy_note : ctx -> event -> string option
(** The pre-trace-layer note string for an event, for environments that
    count events as flat strings: ["rpc.retry"], ["recovery.start"]
    ([Op_begin] of a recovery op), ["recovery.backoff"],
    ["recovery.adopt"], ["recovery.done"], ["write.giveup"], and
    [Custom s] as [s]; [None] for events that had no legacy spelling. *)

val pp_event : Format.formatter -> event -> unit
(** Deterministic one-line rendering (requests via
    {!Proto.pp_request}). *)

val event_to_string : event -> string
val pp_ctx : Format.formatter -> ctx -> unit
