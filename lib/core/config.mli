(** Static configuration of an erasure-coded storage service: the code,
    the update strategy, the client-failure threshold, and the protocol's
    tuning knobs (retry/backoff/monitor periods). *)

(** How a write updates the redundant blocks (Sec 4, Sec 3.11):
    - [Serial]: adds one after another — best resiliency, latency [p+1];
    - [Parallel]: all adds at once — latency 2, reduced resiliency;
    - [Hybrid g]: groups of [g] parallel adds, groups in series;
    - [Bcast]: one broadcast carrying the unscaled delta, storage nodes
      multiply by their own coefficient — latency 2, client sends the
      payload once. *)
type strategy = Serial | Parallel | Hybrid of int | Bcast

(** Client-side compute costs charged to the simulated CPU, seconds per
    byte processed.  Defaults come from this repo's own Fig 8(a)
    micro-benchmarks (optimized table-driven kernels). *)
type cost_model = {
  delta_per_byte : float;   (** subtract + scale, client side *)
  add_per_byte : float;     (** XOR, storage side *)
  encode_per_byte : float;  (** full-stripe encode, per data byte *)
  decode_per_byte : float;  (** full-stripe decode, per data byte *)
}

val default_costs : cost_model

(** Tuning of the per-node failure detector (see {!Health}): adaptive
    RPC deadlines, accrual suspicion thresholds, circuit-breaker
    quarantine, and read hedging.  All durations in simulated seconds. *)
type health = {
  timeout_floor : float;  (** adaptive deadline lower clamp *)
  timeout_ceil : float;   (** adaptive deadline upper clamp; with no RTT
                              history the deadline is exactly this, so it
                              should match the transport's fixed timeout *)
  timeout_mult : float;   (** deadline = mult x observed p99 proxy *)
  suspect_score : float;  (** accrual score at which a node turns Suspect *)
  down_score : float;     (** accrual score at which a node turns Down *)
  decay_halflife : float; (** suspicion halves over this much idle time *)
  quarantine : float;     (** fast-fail window after a node turns Down *)
  probation_oks : int;    (** consecutive successes that readmit a node *)
  hedge : bool;           (** hedge reads off Suspect data nodes *)
  hedge_delay_mult : float;
      (** hedge fires after mult x observed p99 proxy of the data node *)
}

val default_health : health

(** End-to-end integrity tuning (see {!Read_path} and {!Scrub}). *)
type integrity = {
  verified_reads : bool;
      (** route [Client.read] through the verified-read path: the fast
          path fetches block + sealed record + epoch atomically and the
          client re-checks the digest before accepting *)
  cross_check : bool;
      (** on verified degraded decodes, decode a second, different
          k-subset and compare before returning *)
  digest_per_byte : float;
      (** modelled client-side checksum compute cost, seconds per byte *)
}

val default_integrity : integrity
(** Verified reads off (plain reads stay byte-for-byte identical to the
    pre-integrity protocol), cross-check on, digest at 1 ns/byte. *)

(** Repair-bandwidth tuning (see {!Recovery} and the volume supervisor):
    delta-repair of epoch-stale members, lazy repair floors, and
    transient-outage grace. *)
type repair = {
  delta_repair : bool;
      (** let recovery catch up an epoch-stale but digest-valid member
          by shipping the adds it missed instead of reconstructing from
          [k] full blocks; any eligibility failure falls back to Fig 6 *)
  delta_log_cap : int;
      (** per-slot byte budget for the retained raw add payloads; an
          overflowing log raises its completeness floor, forcing full
          rebuild for members stale beyond it *)
  tombs_cap : int;
      (** per-slot cap on GC-dropped tids retained for duplicate
          suppression; overflow disqualifies the slot as a delta target *)
  repair_floor : int option;
      (** [None] = eager: rebuild on any lost member (seed behavior).
          [Some f] defers repair until a group's live member count drops
          below [f]; must lie in [k+1, n] *)
  repair_grace : float;
      (** seconds a Down node may stay silent before the supervisor
          fails it over; a node returning within the grace window is
          delta-repaired in place *)
}

val default_repair : repair
(** Delta-repair on, 64 KB log cap, 512 tombstones, eager floor, zero
    grace — byte-identical supervisor scheduling to the seed. *)

type t = {
  k : int;
  n : int;
  block_size : int;
  field : Field.choice;
      (** the GF(2^h) the code computes over; [`Gf8] is the paper's
          regime, [`Gf16] lifts the n <= 255 cap (block_size must be a
          multiple of the 2-byte symbol) *)
  strategy : strategy;
  t_p : int;  (** client-failure threshold (Sec 4) *)
  t_d : int;  (** storage-failure tolerance implied by strategy and t_p *)
  costs : cost_model;
  (* Tuning knobs, all in (simulated) seconds unless noted. *)
  retry_delay : float;        (** backoff between swap/lock retries *)
  order_retry_limit : int;    (** ORDER replies before declaring the
                                  predecessor write stuck (Fig 5 l.13) *)
  recovery_poll_delay : float;(** pause between recovery state polls *)
  recovery_retry_limit : int; (** recovery poll rounds before giving up *)
  monitor_interval : float;   (** period of the Sec 3.10 monitor *)
  stale_write_age : float;    (** recentlist age that flags a write as
                                  stuck *)
  rpc_retry_limit : int;      (** timed-out idempotent RPC resends before
                                  the caller treats the node as gone *)
  rpc_backoff : float;        (** initial retry backoff, doubled per
                                  attempt *)
  rpc_backoff_max : float;    (** backoff ceiling *)
  health : health;            (** failure-detector tuning (see {!Health}) *)
  integrity : integrity;      (** end-to-end integrity tuning *)
  repair : repair;            (** repair-bandwidth tuning *)
}

val make :
  ?strategy:strategy ->
  ?t_p:int ->
  ?block_size:int ->
  ?field:Field.choice ->
  ?costs:cost_model ->
  ?retry_delay:float ->
  ?order_retry_limit:int ->
  ?recovery_poll_delay:float ->
  ?recovery_retry_limit:int ->
  ?monitor_interval:float ->
  ?stale_write_age:float ->
  ?rpc_retry_limit:int ->
  ?rpc_backoff:float ->
  ?rpc_backoff_max:float ->
  ?health:health ->
  ?integrity:integrity ->
  ?repair:repair ->
  k:int ->
  n:int ->
  unit ->
  t
(** Build a configuration.  Defaults: parallel strategy, [t_p = 1],
    1 KB blocks, GF(2^8).  [t_d] is derived from the strategy's theorem
    (clamped at 0).  Requires [2 <= k < n] and [n - k <= k] (the
    paper's correctness precondition, Sec 4), [block_size] a multiple
    of the field's symbol size, and [n] within the field's code-width
    cap.
    @raise Invalid_argument on violations. *)

val p : t -> int
(** Redundancy [n - k]. *)

val h : t -> int
(** Symbol width in bits of the configured field (8 or 16). *)

val t_d_for : strategy -> t_p:int -> p:int -> int
(** The storage-failure tolerance a strategy provides (>= 0 clamp). *)

val effective_floor : t -> int
(** The live-member count below which lost members must be rebuilt:
    [repair_floor] when set, else [n] (eager). *)

val strategy_to_string : strategy -> string
