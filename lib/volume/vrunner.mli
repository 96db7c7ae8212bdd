(** Experiment driver: the measurement loop behind Figs 9 and 10 and
    the volume benches.

    Runs [clients] clients over one {!Shard_cluster}, each owning a
    {!Volume} and [outstanding] request fibers; optionally starts a
    {!Maintenance} scheduler for the run's duration; and measures
    aggregate throughput plus mean and p99 latency over the window.
    Tail percentiles come from the complete in-window sample, so a
    seeded run reports byte-identical numbers.

    With [check], every operation is recorded for the regular-register
    checker keyed by logical block — per (group, slot, position) — so
    the single-group checker applies to volume histories unchanged. *)

type result = {
  run : Report.run;  (** the standard per-run stats block *)
  p99_read : float;  (** seconds; 0 when no sample *)
  p99_write : float;
  write_stalls : int;
      (** operations that tripped a retry limit ({!Client.Stuck}),
          e.g. during an outage outlasting the budget; recorded as
          unfinished for the checker *)
  maintenance_passes : int;
  maintenance_gc_rounds : int;
  maintenance_errors : int;
  maintenance_recoveries : int;
  maintenance_backoffs : int;
      (** per-group backoff penalties the scheduler applied *)
  failures : Report.failures;
      (** unified failure/health accounting ({!Report.failures}) *)
  supervisor_failovers : int;  (** group members re-homed (supervise) *)
  supervisor_repairs : int;  (** stripes rebuilt on new hosts *)
  supervisor_false_alarms : int;
      (** Down verdicts whose node was actually alive *)
  supervisor_deferrals : int;
      (** Down verdicts parked on a lazy-repair grace timer (all
          affected groups still met the repair floor) *)
  supervisor_catchups : int;
      (** deferrals resolved by the node returning within grace:
          stripes caught up in place instead of failed over *)
  detections : (int * float) list;
      (** (pool node, simulated time) of each Down verdict the
          supervisor acted on, in order *)
  repaired_at : (int * float) list;
      (** (pool node, simulated time) when each failed-over node's
          groups finished targeted repair *)
  repair_delta_hits : int;
      (** recoveries resolved by delta catch-up (missed adds shipped) *)
  repair_full_rebuilds : int;  (** recoveries that decoded [k] blocks *)
  repair_bytes_read : int;
      (** response bytes repair pulled from source members *)
  repair_bytes_shipped : int;
      (** request bytes repair pushed to rebuilt/caught-up members *)
  rebalance_moves : int;
      (** member migrations the {!Rebalancer} applied ([rebalance]) *)
  rebalance_blocks : int;  (** stripe blocks rebuilt on new hosts *)
  rebalance_skipped : int;  (** stale queued moves dropped *)
  rebalance_errors : int;
  scrub_passes : int;  (** completed background sweeps ([scrub]) *)
  scrub_report : Scrub.report;
      (** accumulated scrub outcome (zero record when no scrubber ran) *)
  scrub_errors : int;  (** stripes whose scrub repair raised *)
  corruptions_injected : int;
      (** at-rest faults injected via the shard cluster's seeded
          injector ({!Shard_cluster.corrupt_member} /
          {!Shard_cluster.rollback_member}, typically from [events]) *)
  corruptions_detected : int;
      (** distinct injected faults seen by any defense layer *)
  detection_lag : float list;
      (** seconds from injection to first detection, oldest first *)
}

val run :
  ?outstanding:int ->
  ?warmup:float ->
  ?events:(float * (Shard_cluster.t -> unit)) list ->
  ?maintenance:float ->
  ?supervise:bool ->
  ?rebalance:bool ->
  ?scrub:float ->
  ?scrub_rate:float ->
  ?on_sample:(float -> read_mbs:float -> write_mbs:float -> unit) ->
  ?sample_every:float ->
  ?gc_every:float option ->
  ?check:Checker.t ->
  sc:Shard_cluster.t ->
  clients:int ->
  duration:float ->
  workload:Generator.spec ->
  unit ->
  result
(** [maintenance], when given, is the background scheduler's ops budget
    in storage-node RPCs per simulated second (see {!Maintenance});
    omitted, no scheduler runs.  [supervise] (default false) starts a
    self-healing {!Supervisor} sharing the maintenance bucket (or a
    private one when no scheduler runs): dead pool nodes are detected,
    failed over and repaired with {e no} scripted remap events.
    [rebalance] (default false) additionally starts a {!Rebalancer} on
    the same bucket (non-urgent, so migrations yield to repair) with a
    50 ms replan period — node joins and drains scheduled via [events]
    are migrated live during the run.
    [scrub], when given, starts a background {!Scrubber} on the same
    bucket with that sweep period (seconds): every used stripe is
    integrity-checked and repaired each sweep, bounding the detection
    lag of at-rest faults injected via [events].  [scrub_rate] carves
    out a private token bucket at that rate (ops per simulated second)
    for the scrubber instead of sharing the maintenance bucket — the
    lever the integrity bench tiers detection lag against.
    [gc_every] (default [Some 0.05]) paces
    the per-client GC fibers — tids are per client, so each client
    collects its own completed writes across the groups it touched.
    [events] are scheduled actions relative to run start (outage
    injection).  Operations of the [warmup] (default 0.05 s) are
    excluded from counts.  [sample_every] (default 1 s) and
    [on_sample] stream windowed throughput for timeline figures.
    [check], when given, records every operation for the
    regular-register checker: writes stamp blocks with fresh tags.
    Writes abandoned after an ambiguous swap timeout
    ({!Client.Write_abandoned}), operations that drain a retry limit
    ({!Client.Stuck}) and writes cut short by a client crash
    ({!Shard_cluster.crash_client}) are recorded as unfinished; a
    crashed client's request and GC fibers stop. *)

(** {1 Profile-driven, multi-tenant runs}

    Several tenants share one volume (same shard cluster, same logical
    block space), each driving its own {!Profile} — closed-loop, or
    open-loop with seeded Poisson arrivals and bounded in-flight
    admission (excess arrivals are shed and counted as drops, never
    queued).  A tenant may be metered by a per-tenant token bucket in
    blocks per simulated second: each request pays its size in tokens
    before being issued, so a greedy tenant cannot push a metered
    neighbour past its configured share. *)

type tenant = {
  tn_name : string;
  tn_profile : Profile.t;
  tn_qos_blocks_per_sec : float option;
      (** token-bucket rate; [None] = unmetered *)
  tn_seed : int;
}

type tenant_result = {
  tr_name : string;
  tr_read_reqs : int;
  tr_write_reqs : int;
  tr_read_blocks : int;
  tr_write_blocks : int;
  tr_drops : int;  (** open-loop arrivals shed at admission *)
  tr_stalls : int;  (** requests with a stuck/abandoned block op *)
  tr_mean : float;  (** seconds; 0 when no sample *)
  tr_p50 : float;
  tr_p99 : float;
  tr_mbs : float;
}

(** Per-request-size latency/throughput breakdown — the
    profile x block-size x G key the regression gate compares on. *)
type size_stats = {
  ss_reqs : int;
  ss_p50 : float;
  ss_p99 : float;
  ss_mbs : float;
}

type profile_result = {
  pf_label : string;  (** distinct tenant profile names, joined *)
  pf_duration : float;
  pf_read_reqs : int;
  pf_write_reqs : int;
  pf_read_mbs : float;
  pf_write_mbs : float;
  pf_p50_read : float;
  pf_p50_write : float;
  pf_p99_read : float;
  pf_p99_write : float;
  pf_drops : int;
  pf_stalls : int;
  pf_mean_inflight : float;
      (** mean in-flight requests seen at arrival instants, in-window *)
  pf_max_inflight : int;
  pf_sizes : (int * size_stats) list;
      (** keyed by request size in blocks, ascending *)
  pf_tenants : tenant_result list;  (** in tenant order *)
}

val run_profile :
  ?warmup:float ->
  ?events:(float * (Shard_cluster.t -> unit)) list ->
  ?blocks:int ->
  sc:Shard_cluster.t ->
  tenants:tenant list ->
  duration:float ->
  unit ->
  profile_result
(** Run every tenant's profile concurrently over one shard cluster for
    [duration] simulated seconds (after [warmup]); tenants address the
    logical blocks [0 .. blocks-1] (default 256).  Latency percentiles
    come from the complete in-window sample, so a seeded run reports
    byte-identical numbers.  The open-loop arrival schedule is drawn
    from each tenant's seed independently of admission outcomes — drops
    never perturb the schedule.
    @raise Invalid_argument if [tenants] is empty or [blocks] is smaller
    than a profile's largest request. *)
