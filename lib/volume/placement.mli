(** Topology-aware, elastic placement of stripe groups over a
    storage-node pool.

    A sharded volume runs [groups] independent AJX instances, each
    needing [nodes_per_group] ([n]) distinct storage nodes, over an
    elastic pool described by a {!Topology}.  Members are chosen by a
    deterministic CRUSH-style straw selector (weighted rendezvous
    hashing): every node's priority for a group is a pure seeded hash
    of [(seed, group, node)] scaled by the node's weight, and the
    group takes the top [n] priorities subject to {e distinct failure
    domains} at the configured level.  Consequences:

    - {b deterministic} — the layout is a pure function of
      [(seed, groups, n, topology)], which the benchmarks'
      byte-deterministic output relies on;
    - {b weight-proportional} — a node's expected member count is
      proportional to its weight (statistically, not exactly: the
      spread is hash noise, bounded by the property tests);
    - {b stable} — adding or removing (draining) one node changes at
      most one member per group, and only in the groups where the new
      node's priority wins (or the lost node was a member): the
      minimal-movement property that keeps rebalance traffic
      proportional to the capacity change, not to the pool size.

    Logical blocks stripe round-robin across groups:
    [locate t l = (l mod groups, l / groups)], so consecutive logical
    blocks land in distinct groups and batch I/O spreads over the whole
    pool. *)

(** One planned member migration: member [index] of [group] moves from
    pool node [src] to pool node [dst].  Produced by {!plan}, applied
    by {!reassign} (placement) + directory remap + Fig 6 rebuild (the
    {!Background}). *)
type move = { mv_group : int; mv_index : int; mv_src : int; mv_dst : int }

(** The placement query/mutation interface — everything the volume
    stack above (shard cluster, background scheduler, volume) needs.
    The concrete [Placement] includes it; an alternative placer (e.g. a
    table-driven one for tests) only has to match this shape. *)
module type S = sig
  type t

  val groups : t -> int
  val nodes_per_group : t -> int

  val pool : t -> int
  (** Current pool size, including drained (weight-0) nodes. *)

  val seed : t -> int
  val level : t -> Topology.level
  val topology : t -> Topology.t

  val group_nodes : t -> int -> int array
  (** Pool indices hosting group [g]'s members, in member order
      (length [nodes_per_group], all distinct). *)

  val member : t -> group:int -> index:int -> int
  (** Pool index hosting member [index] of [group]. *)

  val locate : t -> int -> int * int
  (** [locate t l] is [(group, group-local block)] for logical block
      [l].  @raise Invalid_argument on a negative block. *)

  val logical : t -> group:int -> block:int -> int
  (** Inverse of {!locate}. *)

  val loads : t -> int array
  (** Per-pool-node member count (group-members hosted), length
      {!pool}. *)

  val reassign : t -> group:int -> index:int -> node:int -> unit
  (** Move member [index] of [group] to pool node [node] (failover or
      rebalance).  Updates {!loads} and the reverse index; the caller
      must remap the group's directory entry afterwards so the member
      is rebuilt on its new host.
      @raise Invalid_argument if out of range or [node] already hosts
      a member of [group]. *)

  val groups_on : t -> int -> int list
  (** Groups with a member on the given pool node, ascending — served
      by a maintained reverse index (node -> members), O(members on
      the node), not a scan of every group. *)

  val members_on : t -> int -> (int * int) list
  (** The [(group, index)] members hosted on a pool node, sorted. *)

  val violates : t -> group:int -> index:int -> node:int -> bool
  (** Would placing [node] at [(group, index)] collide with another
      member of the group in the same failure domain at the placement
      level?  (Failover uses this to prefer domain-respecting
      destinations.) *)

  val plan : t -> move list
  (** Diff the current member map against a fresh selection over the
      {e current} topology (weights, node set) without mutating
      anything: the incremental migrations that would bring the layout
      back to its selector-ideal state.  Deterministic order (group
      ascending, member index ascending).  Members with no legal
      destination (pool too degraded) produce no move and stay put. *)

  val max_load_imbalance : t -> int
  (** [max load - min load] across positive-weight pool nodes — the
      selector's hash noise, bounded but not 0/1 like the old
      least-loaded placer. *)
end

include S

val make :
  ?seed:int -> groups:int -> nodes_per_group:int -> pool:int -> unit -> t
(** Flat pool of [pool] unit-weight nodes ({!Topology.flat}), placed at
    level [Disk] — distinct-domain placement degenerates to distinct
    nodes, the pre-topology behaviour.
    @raise Invalid_argument unless [groups > 0], [nodes_per_group > 0]
    and [pool >= nodes_per_group]. *)

val make_topo :
  ?seed:int ->
  ?level:Topology.level ->
  groups:int ->
  nodes_per_group:int ->
  topology:Topology.t ->
  unit ->
  t
(** Place over an explicit topology; members of each group land in
    distinct failure domains at [level] (default [Host]).
    @raise Invalid_argument unless the topology offers at least
    [nodes_per_group] distinct positive-weight domains at [level]. *)
