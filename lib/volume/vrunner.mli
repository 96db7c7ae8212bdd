(** Experiment driver: the one measurement loop behind every paper
    figure, the volume benches and the profile benches.

    Several tenants share one {!Shard_cluster} and one logical block
    space, each owning a {!Volume} and driving its own {!Profile} —
    closed-loop, or open-loop with seeded Poisson arrivals and bounded
    in-flight admission (excess arrivals are shed and counted as drops,
    never queued).  A tenant may be metered by a per-tenant token bucket
    in blocks per simulated second: each request pays its size in tokens
    before being issued, so a greedy tenant cannot push a metered
    neighbour past its configured share.  The closed-loop clients of the
    figure benches are {!clients}: one single-block profile, one tenant
    per client.

    Each tenant collects its own garbage (Fig 7); the {!Background}
    scheduler can run for the window's duration.  The loop measures
    aggregate throughput plus mean and tail latency over the window.
    Tail percentiles come from the complete in-window sample, so a
    seeded run reports byte-identical numbers. *)

type tenant = {
  tn_name : string;
  tn_profile : Profile.t;
  tn_qos_blocks_per_sec : float option;
      (** token-bucket rate; [None] = unmetered *)
  tn_seed : int;
}

val clients : int -> Profile.t -> tenant list
(** [clients n p]: [n] unmetered tenants running [p], named
    ["client c"] and seeded [0x5eed + 131 c]. *)

(** One tenant's in-window completed requests and their blocks. *)
type tenant_result = {
  tr_name : string;
  tr_reqs : int;
  tr_blocks : int;
  tr_drops : int;  (** open-loop arrivals shed at admission *)
}

(** Per-request-size latency/throughput breakdown — the
    profile x block-size x G key the regression gate compares on. *)
type size_stats = {
  ss_reqs : int;
  ss_p50 : float;
  ss_p99 : float;
  ss_mbs : float;
}

type result = {
  run : Report.run;
      (** the standard per-run stats block; its ops are requests, its
          MB/s count blocks, and [outstanding] is the largest
          closed-loop fiber count *)
  pf_read_reqs : int;
  pf_write_reqs : int;
  pf_read_mbs : float;
  pf_write_mbs : float;
  pf_p50_read : float;  (** seconds; 0 when no sample *)
  pf_p50_write : float;
  pf_p99_read : float;
  pf_p99_write : float;
  pf_drops : int;
  pf_stalls : int;  (** failed requests (a stuck or abandoned block op) *)
  pf_mean_inflight : float;
      (** mean in-flight requests seen at arrival instants, in-window *)
  pf_max_inflight : int;
  pf_sizes : (int * size_stats) list;
      (** keyed by request size in blocks, ascending *)
  pf_tenants : tenant_result list;  (** in tenant order *)
  failures : Report.failures;
      (** unified failure/health accounting ({!Report.failures}) *)
  background : Background.counters;
      (** what the background tasks did ({!Background.zero} without
          them) *)
  repair_delta_hits : int;
      (** recoveries resolved by delta catch-up (missed adds shipped) *)
  repair_full_rebuilds : int;  (** recoveries that decoded [k] blocks *)
  repair_bytes_read : int;
      (** response bytes repair pulled from source members *)
  repair_bytes_shipped : int;
      (** request bytes repair pushed to rebuilt/caught-up members *)
  corruptions_injected : int;
      (** at-rest faults injected via the shard cluster's seeded
          injector ({!Shard_cluster.corrupt_member} /
          {!Shard_cluster.rollback_member}, typically from [events]) *)
  corruptions_detected : int;
      (** distinct injected faults seen by any defense layer *)
  detection_lag : float list;
      (** seconds from injection to first detection, oldest first *)
}

val run_profile :
  ?warmup:float ->
  ?events:(float * (Shard_cluster.t -> unit)) list ->
  ?background:float * Background.task list ->
  ?on_sample:(float -> read_mbs:float -> write_mbs:float -> unit) ->
  ?sample_every:float ->
  ?gc_every:float option ->
  ?check:Checker.t ->
  ?blocks:int ->
  sc:Shard_cluster.t ->
  tenants:tenant list ->
  duration:float ->
  unit ->
  result
(** Run every tenant's profile concurrently over one shard cluster for
    [duration] simulated seconds (after [warmup], default 0.05 s, whose
    requests are excluded from counts); tenants address the logical
    blocks [0 .. blocks-1] (default 256).  The open-loop arrival
    schedule is drawn from each tenant's seed independently of
    admission outcomes — drops never perturb the schedule.

    [events] are scheduled actions relative to run start (outage
    injection).  [background] (default none) is [(rate, tasks)]: the
    tasks the {!Background} scheduler runs until the end of the window,
    paying a token bucket refilled at [rate] storage-node RPCs per
    simulated second.  With [Supervise], dead pool nodes are detected,
    failed over and repaired with {e no} scripted remap events; with
    [Rebalance], node joins and drains scheduled via [events] are
    migrated live; with [Scrub period], at-rest faults injected via
    [events] are found within about one sweep.  [gc_every] (default
    [Some 0.05]) paces the per-tenant GC fibers — tids are per client,
    so each tenant collects its own completed writes across the groups
    it touched, each group once per period, the groups' rounds spread
    evenly across it.  [sample_every] (default 1 s) and [on_sample] stream
    windowed throughput for timeline figures.

    [check], when given, records every block operation for the
    regular-register checker, keyed by logical block — per (group,
    slot, position) — so the single-group checker applies to volume
    histories unchanged; writes stamp blocks with fresh tags.
    Writes abandoned after an ambiguous swap timeout
    ({!Client.Write_abandoned}), operations that drain a retry limit
    ({!Client.Stuck}) and writes cut short by a client crash
    ({!Shard_cluster.crash_client}) are recorded as unfinished; a
    crashed client's request and GC fibers stop.
    @raise Invalid_argument if [tenants] is empty or [blocks] is smaller
    than a profile's largest request. *)

val percentile : float -> float list -> float
(** [percentile q samples]: the nearest-rank [q]-quantile, the smallest
    sample with at least a [q] share of the samples at or below it; 0 on
    an empty list. *)
