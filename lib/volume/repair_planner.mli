(** Degraded-aware repair-source planner: volume-level source selection
    for {!Recovery} (delta-repair pulls and full-rebuild reads).

    One instance per group client.  It ranks candidate source members by
    additive penalty — draining pool node (dominant: such a member is
    chosen only when no alternative exists), member queued for
    migration, Suspect/Probation failure-detector state, and how many
    repair reads the member has already served ([note] feedback, which
    spreads consecutive rebuilds across distinct sources). *)

type t

val create :
  pool_of:(index:int -> int) ->
  draining:(int -> bool) ->
  queued:(index:int -> bool) ->
  unit ->
  t
(** [pool_of] maps a group member index to its hosting pool node,
    [draining] says whether a pool node has weight 0, [queued] whether
    the member is in the pending-move queue.  All three are
    consulted live on every [rank] call, so placement changes take
    effect immediately. *)

val set_health : t -> Health.t -> unit
(** Late-bind the group client's failure detector (the client is
    constructed {e with} the planner, so the detector does not exist yet
    at {!create} time).  Until set, health contributes no penalty. *)

val planner : t -> layout:Layout.t -> Recovery.planner
(** The {!Recovery.planner} view, translating stripe positions to
    member indices through [layout]. *)

val source_reads : t -> index:int -> int
(** Repair reads member [index] has served so far (test accessor). *)

val picks : t -> (int * int) list
(** Every [(slot, pos)] source pick reported via [note], oldest first
    (test accessor). *)
