(** One background scheduler for a sharded volume.

    All background work — the Sec 3.10 monitor with the Fig 7 GC,
    failover and repair of dead pool nodes, in-place catch-up of
    returning ones, live migration and integrity scrub — runs in one
    fiber, as one client (id 9999) over one {!Volume}, paying one token
    {!Budget}.  The fiber repeatedly runs the next unit of the
    highest-priority ready job:

    + failover and rebuild of a Down node's groups, one stripe per unit;
    + in-place catch-up of a node that returned within its lazy-repair
      grace, one stripe per unit, from two quarantine periods after its
      return (so the clients' circuit breakers have half-opened);
    + one stripe of the current migration move;
    + one stripe of the current scrub sweep, at most one sweep started
      per period;
    + one step of a monitor visit to the next group in round-robin
      order (skipping a group under migration): the probe sweep, one
      recovery per flagged stripe, then the GC round.

    Migration is not urgent, so after each migration stripe the next
    turn goes to lower-priority work if any is ready; a long drain
    therefore does not stall the monitor.  No unit is larger than one
    stripe's recovery, so urgent work waits for at most one unit.  A
    single fiber cannot race itself: no two units ever touch one group
    at once, and no claims or priority sections are needed.  Failovers
    run one at a time, so a Down verdict that waits out another
    failover gets a fresh liveness check when its turn comes.  Repair
    and migration stripes are checked without locks first and recovered
    only if degraded, since a foreground write that meets an INIT member
    rebuilds the stripe itself; a monitor recovery whose flag was raised
    before other work ran is checked the same way.

    Every storage-node RPC costs one token: [n + 1] per repair or
    migration stripe, [2n + 1] per scrub stripe, [n + 1] per monitor
    visit, paid by its probe sweep.  The bucket holds two of the
    costliest enabled unit.  Nothing new starts once the window closes;
    the free remainder of a monitor visit already paid for still runs.
    A unit that trips a retry limit ([Stuck]/[Data_loss]) is absorbed;
    a failed monitor visit backs its group off, 0.02 s doubling per
    consecutive failure up to 0.32 s.  All pacing derives from the
    simulated clock, so a seeded run is deterministic. *)

type task =
  | Monitor  (** round-robin monitor + GC visits *)
  | Supervise
      (** act on pool-level Down verdicts ({!Shard_cluster.on_pool_health}):
          a node that still answers is a false alarm; otherwise its
          groups below [Config.effective_floor] are failed over
          ({!Shard_cluster.fail_over}) and rebuilt, and the rest wait
          out [repair_grace], then catch up in place if the node came
          back or fail over if it did not *)
  | Rebalance
      (** drain the pending-move queue, re-validating each move against
          the live placement, and re-plan every 50 ms while it is idle *)
  | Scrub of float  (** {!Scrub.scrub_slot} sweeps, one per period (s) *)

type counters = private {
  mutable maintenance_passes : int;  (** monitor visits *)
  mutable maintenance_gc_rounds : int;
  mutable maintenance_errors : int;  (** monitor visits that failed *)
  mutable maintenance_recoveries : int;
      (** recoveries the monitor visits ran (not repair, catch-up,
          migration or scrub recoveries) *)
  mutable maintenance_backoffs : int;  (** per-group penalties applied *)
  mutable supervisor_failovers : int;  (** group members re-homed *)
  mutable supervisor_repairs : int;
      (** stripes a failover restored (checked or rebuilt), plus
          stripes a catch-up recovered *)
  mutable supervisor_false_alarms : int;
      (** Down verdicts whose node was actually alive *)
  mutable supervisor_deferrals : int;
      (** Down verdicts parked on a lazy-repair grace timer *)
  mutable supervisor_catchups : int;
      (** deferrals resolved by the node returning within its grace *)
  mutable detections : (int * float) list;
      (** (pool node, time) of each Down verdict acted on, in order *)
  mutable repaired_at : (int * float) list;
      (** (pool node, time) when a failover or a catch-up of that node
          finished its last group, in order *)
  mutable rebalance_moves : int;  (** member migrations started *)
  mutable rebalance_blocks : int;
      (** stripes restored on new hosts (checked or rebuilt) *)
  mutable rebalance_skipped : int;  (** stale queued moves dropped *)
  mutable rebalance_errors : int;
  mutable scrub_passes : int;
      (** sweeps, counting one cut short by the end of the run *)
  mutable scrub_report : Scrub.report;
  mutable scrub_errors : int;  (** scrub stripes that raised *)
}

val zero : counters
(** The counters of a run without background work. *)

type t

val start :
  Shard_cluster.t -> rate:float -> tasks:task list -> until:float -> t
(** Spawn the scheduler, refilling its bucket at [rate] tokens per
    simulated second, running the given tasks until [until].
    @raise Invalid_argument if [rate <= 0]. *)

val counters : t -> counters
(** A snapshot of the counters. *)

(**/**)

(* Test hooks: the monitor's backoff policy, without a cluster run. *)
val record_failure : t -> int -> unit
val record_success : t -> int -> unit
val eligible_at : t -> int -> float
