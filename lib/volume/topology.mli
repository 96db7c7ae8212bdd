(** Failure-domain topology of the storage pool.

    Every pool node (a disk, the leaf) lives inside a hierarchy of
    failure domains — [Disk < Host < Rack < Zone] — and carries a
    weight (relative capacity).  The topology is the ground truth the
    CRUSH-style {!Placement} selects against: group members must land
    in distinct domains at a configured level, and selection is
    weight-proportional, so heterogeneous pools fill evenly.

    The node set is elastic: {!add_node} grows the pool (node ids are
    dense and never reused) and {!set_weight} shrinks a node's share —
    weight [0.] marks it draining/retired, and the placement stops
    selecting it.  Both only take effect on the next
    {!Placement.plan}; nothing moves until the background scheduler
    applies the diff. *)

type level = Disk | Host | Rack | Zone

val level_to_string : level -> string
val level_of_string : string -> level option

(** Declarative spec for a regular topology: [zones] zones, each
    holding [racks_per_zone] racks of [hosts_per_rack] hosts with
    [disks_per_host] disks each, all at [weight] (default [1.]). *)
type spec = {
  zones : int;
  racks_per_zone : int;
  hosts_per_rack : int;
  disks_per_host : int;
  weight : float;
}

val spec :
  ?weight:float ->
  zones:int ->
  racks_per_zone:int ->
  hosts_per_rack:int ->
  disks_per_host:int ->
  unit ->
  spec

type t

val make : spec -> t
(** Build the regular topology described by [spec], nodes numbered
    depth-first (zone-major).
    @raise Invalid_argument unless every count is positive and the
    weight is positive. *)

val flat : int -> t
(** [flat m] is the degenerate topology of [m] unit-weight nodes, each
    its own host, rack and zone — distinct-domain placement at any
    level reduces to distinct nodes, reproducing the pre-topology
    behaviour of a flat pool. *)

val size : t -> int
(** Total node count, including drained (weight-0) nodes. *)

val weight : t -> int -> float
val total_weight : t -> float
(** Sum of all node weights (drained nodes contribute nothing). *)

val domain : t -> node:int -> level:level -> int
(** Identifier of the failure domain containing [node] at [level]
    ([domain ~level:Disk] is the node id itself).  Domain ids are
    stable and comparable only within one level. *)

val domains : t -> level -> int
(** Number of distinct domains at [level]. *)

val add_node : ?weight:float -> t -> host:int -> rack:int -> zone:int -> int
(** Grow the pool by one node inside the given (possibly new) domains
    and return its id ([size] before the call).  Domain ids may name
    existing domains (join an existing host/rack/zone) or fresh ones.
    @raise Invalid_argument on a negative weight. *)

val set_weight : t -> int -> float -> unit
(** Reweight a node; [0.] marks it draining — the placement selector
    skips it from then on.  @raise Invalid_argument if negative or the
    node is out of range. *)

val pp : Format.formatter -> t -> unit
(** Render the domain tree (zones, racks, hosts, disks with weights). *)

val to_string : t -> string
