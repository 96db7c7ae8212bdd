(** Simulated substrate for a sharded volume: one discrete-event
    network hosting a pool of [m] storage nodes, over which [G]
    independent AJX stripe groups are placed by a {!Placement}.

    Each group owns its directory, layout, metrics registry and
    per-(group, member) storage state, but members of co-located groups
    bind to the {e same} pool network node — groups sharing a pool node
    contend for its NIC and CPU, which is what saturates the volume's
    scaling curve as [G] grows.

    With the default one-group placement this is also the single-group
    counterpart of the paper's 8-host testbed (Sec 5.1) and of its tuned
    simulator for larger systems (Sec 5.2).

    Failure model: pool nodes fail-stop and restart.  A {!restart_node}
    installs a fresh network node under the same site and remaps every
    hosted group member to a new generation with INIT slots, re-entering
    service through monitor-driven recovery (Sec 3.10, Fig 6).  What a
    client sees of a dead node is the {!remap_policy}.  A call that
    raced a remap is transparently retried against the fresh entry.

    Clients fail-stop too ({!crash_client}): their in-flight fibers die
    at their next environment interaction with {!Client_crashed}, and
    storage nodes' failure detectors observe it (lock expiry).  {!run}
    absorbs the resulting unwinds and keeps the simulation going.

    All randomness draws from the cluster's seeded engine, so a failing
    run replays exactly from its seed. *)

exception Client_crashed of int

type remap_policy = [ `Auto | `Manual | `Stable ]
(** How a client sees a dead storage member:
    - [`Stable] (default): [`Node_down] until a {!restart_node} or
      {!fail_over} replaces it — the reliable detection recovery needs
      to skip the member;
    - [`Auto]: the client's [`Node_down] restarts the hosting pool node
      on the spot (the paper's directory remap, Sec 3.5) and the call
      goes to the fresh INIT replacement;
    - [`Manual]: the crash-without-remap window of Sec 3.5 — the call
      waits out its RPC timer and surfaces as [`Timeout], as a lost
      message would, until an operator remaps the node. *)

type t

val create :
  ?net_config:Net.config ->
  ?rotate:bool ->
  ?seed:int ->
  ?remap_policy:remap_policy ->
  ?faults:Net.faults ->
  ?placement:Placement.t ->
  Config.t ->
  t
(** One simulated network with [Placement.pool] storage nodes and
    [Placement.groups] AJX instances over them.  The placement's
    [nodes_per_group] must equal the config's [n]; the default is one
    group over [n] pool nodes, member [i] on pool node [i].  [faults],
    when given, becomes the default policy of every network link from
    time 0.
    @raise Invalid_argument otherwise. *)

val engine : t -> Engine.t
val net : t -> Net.t
val stats : t -> Stats.t
val config : t -> Config.t
val code : t -> Rs_code.t
val placement : t -> Placement.t

val pool_site : int -> string
(** Stable site label of pool node [i] ("p<i>"), the key for per-link
    fault policies and partitions ({!Net.partition}); survives
    restarts. *)

val client_site : int -> string
(** Site label of client [id] ("vc<id>"). *)

val topology : t -> Topology.t
val now : t -> float

val pool_size : t -> int
(** Current pool node count (grows with {!add_node}). *)

val groups : t -> int
val group_layout : t -> int -> Layout.t
val group_directory : t -> int -> Directory.t

val group_metrics : t -> int -> Metrics.t
(** Per-group metrics registry, fed by every client of that group —
    the per-group label the volume benchmarks slice on. *)

val metrics : t -> Metrics.t
(** Fresh registry holding the merged counters/latencies of every
    group (deterministic under a fixed seed). *)

val used_slots : t -> group:int -> int list
(** Stripes a group has served (sorted) — the maintenance monitor's
    slot universe.  Recorded automatically by every transport call. *)

val crash_client : t -> int -> unit
val client_crashed : t -> int -> bool

val node_alive : t -> int -> bool
val crash_node : t -> int -> unit
(** Fail-stop a pool node: every group member hosted on it goes dead. *)

val restart_node : t -> int -> unit
(** Bring a crashed pool node back: fresh network node under the same
    site, and every hosted group member remapped to the next generation
    (INIT slots).  No-op if the node is alive. *)

val replace_node : t -> int -> unit
(** {!crash_node} then {!restart_node} at once: a permanent failure
    replaced by the directory remap of Sec 3.5 in one step. *)

val revive_node : t -> int -> unit
(** Bring a crashed pool node back {e with its state intact} — the
    crash-recovery rejoin (as opposed to {!restart_node}'s
    disk-lost replacement).  A fresh network node is installed under the
    same site and every hosted group member is {!Directory.rebind}-ed in
    place: same store, next generation.  Each store is swept by
    {!Storage_node.quarantine_inflight} (slots caught mid-reconstruction
    demote to INIT; counted in {!stats} as ["pool.slots_quarantined"]);
    every other slot keeps its blocks and rejoins as an epoch-stale
    delta-repair target.  No-op if alive. *)

val schedule_outage : t -> at:float -> node:int -> down_for:float -> unit

val schedule_blip : t -> at:float -> node:int -> down_for:float -> unit
(** Like {!schedule_outage} but the node returns via {!revive_node}
    (state kept) — the transient-outage case that delta repair and lazy
    repair floors target. *)

val fail_over : ?only:int list -> t -> node:int -> int list
(** Re-home every group member hosted on the {e dead} pool node [node]
    ([only] restricts to the listed groups — the supervisor's
    partial-failover lever when some of the node's groups are parked on
    a lazy-repair grace timer):
    each moves to an alive, least-loaded pool node not already serving
    its group ({!Placement.reassign}) and its directory entry is
    remapped to a fresh generation (INIT slots on the new host, repaired
    by Fig 6 recovery).  Returns the groups that had a member moved —
    the supervisor's targeted-repair set.  Members with no legal
    destination are left in place.
    @raise Invalid_argument if [node] is alive or out of range. *)

(** {1 Elastic membership}

    Capacity changes are metadata-only: they edit the topology, re-run
    the placement selector and enqueue the member-migration diff.  The
    {!Background} scheduler drains the queue, rebuilding each
    moved member on its new home through the Fig 6 recovery path while
    client traffic continues. *)

val add_node : ?weight:float -> t -> host:int -> rack:int -> zone:int -> int
(** Join a fresh pool node (default weight [1.]) inside the given
    failure domains (existing or new ids — see {!Topology.add_node}),
    install its network node, and enqueue the placement diff.  Returns
    the new pool index. *)

val drain_node : t -> int -> Placement.move list
(** Mark a node draining (weight 0): the selector stops picking it and
    the placement diff — every member it hosts, by the minimal-movement
    property — is enqueued for migration.  The node keeps serving until
    each member is rebuilt elsewhere (live migration, not failover).
    Returns the newly enqueued moves.
    @raise Invalid_argument if out of range. *)

val plan_rebalance : t -> Placement.move list
(** Recompute the placement diff against the current topology and
    enqueue any move not already queued (deduplicated per (group,
    member)); returns the newly enqueued moves.  Called automatically
    by {!add_node} and {!drain_node}. *)

val take_move : t -> Placement.move option
(** {1 At-rest integrity faults}

    Silent faults below the protocol, drawn from a seeded {!Injector}
    (replayable).  Every injection is ledgered; the first sighting by
    {e any} defense layer — the node's own digest self-check, a
    client-side verified read, or the cross-member decode check — retires
    the entry and samples its detection lag.  Raw detection events are
    also counted in {!stats} ("integrity.node_detected",
    "integrity.node_stale", "integrity.client_detected",
    "integrity.client_stale"). *)

val corrupt_member : t -> group:int -> index:int -> slot:int -> bool
(** Flip seeded bit patterns in the stored block of [slot] on group
    member [index], record untouched.  [false] (and no ledger entry)
    when the slot holds no committed data. *)

type member_snapshot = Storage_node.snapshot

val snapshot_member :
  t -> group:int -> index:int -> slot:int -> member_snapshot option

val rollback_member :
  t -> group:int -> index:int -> slot:int -> member_snapshot -> bool
(** Stale-but-well-formed fault: restore a captured block {e and} its
    sealed record.  Detected only by the epoch check (if recovery
    finalized in between) or the cross-member decode check. *)

val integrity_injected : t -> int
(** Faults successfully injected (ledgered). *)

val integrity_detected : t -> int
(** Distinct injected faults seen by some defense layer. *)

val integrity_lag : t -> float list
(** Detection lags (seconds, oldest first), one per detected fault —
    the scrub-lag distribution the integrity bench reports. *)

val set_pool_link_faults :
  t -> client:int -> node:int -> Net.faults option -> unit
(** Override (or clear) the fault policy of both directions of the link
    between a client and a pool node — the lever for lossy-but-alive
    (Suspect) nodes, as opposed to {!crash_node}'s fail-stop. *)

val on_note : t -> (float -> string -> unit) -> unit

val on_pool_health :
  t -> (now:float -> node:int -> state:Health.state -> unit) -> unit
(** Subscribe to pool-level health events: whenever any group client's
    failure detector moves a member between states, the member is
    translated to its hosting pool node (current placement) and every
    hook runs.  Hooks fire synchronously inside the observing client's
    call stack — they must only record/enqueue, never call back into
    the protocol (see {!Background}). *)

val transport : t -> id:int -> group:int -> Transport.t
(** Transport for client [id] addressing one group.  All groups of one
    client share a single client-side network node (one NIC). *)

val make_group_client : t -> id:int -> group:int -> Client.t
(** Client for one group, wired with the group's trace sink, the
    layout-aware failure-detector keying, and a {!Repair_planner}
    (draining hosts and queued migrations never serve repair reads when
    an alternative exists; consecutive rebuilds spread across
    sources). *)

val group_planner : t -> id:int -> group:int -> Repair_planner.t option
(** The repair planner built for client [id]'s view of [group] by
    {!make_group_client} (test/diagnostic accessor). *)

val spawn : t -> (unit -> unit) -> unit
(** Spawn a fiber at the current simulated time. *)

val run : ?until:float -> t -> unit
(** Drive the simulation, absorbing {!Client_crashed} unwinds from
    fibers of crashed clients. *)
