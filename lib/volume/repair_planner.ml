(* Degraded-aware repair-source planner (one per group client).

   Recovery consults [rank] when it orders candidate sources — the
   redundant members a delta repair could pull the add log from, or the
   k state responses a full rebuild will actually decode.  The planner
   folds in volume-level signals the protocol layer cannot see:

   - a member hosted on a {e draining} pool node (weight 0) must not
     serve repair reads — the whole point of draining is to take load
     off the node, and the member itself may be mid-migration;
   - a member whose (group, index) sits in the pending-move queue
     is about to be rebuilt elsewhere — reading from it risks racing the
     migration's remap;
   - a member whose failure detector says Suspect/Probation is already
     struggling under foreground (possibly hedged) reads — repair
     traffic should go elsewhere first;
   - all else equal, consecutive rebuilds should spread across distinct
     sources instead of hammering the first healthy member, which is
     what the [note] feedback counter achieves.

   Ranks are additive penalties: 0 is a perfectly idle healthy member.
   The draining penalty dominates everything else so a draining source
   is chosen only when no alternative exists at all (restoring
   redundancy still beats refusing to repair). *)

type t = {
  pool_of : index:int -> int;
  draining : int -> bool;
  queued : index:int -> bool;
  mutable health : Health.t option; (* late-bound: client built after us *)
  recent : (int, int) Hashtbl.t; (* member index -> repair reads served *)
  mutable notes : (int * int) list; (* (slot, pos) picks, newest first *)
}

let penalty_draining = 1_000_000
let penalty_queued = 10_000
let penalty_suspect = 100
let penalty_probation = 50

let create ~pool_of ~draining ~queued () =
  {
    pool_of;
    draining;
    queued;
    health = None;
    recent = Hashtbl.create 8;
    notes = [];
  }

let set_health t h = t.health <- Some h

let rank t ~index =
  let served =
    match Hashtbl.find_opt t.recent index with Some c -> c | None -> 0
  in
  let state_penalty =
    match t.health with
    | None -> 0
    | Some h -> (
      match Health.state h ~node:index with
      | Health.Healthy -> 0
      | Health.Suspect | Health.Down -> penalty_suspect
      | Health.Probation -> penalty_probation)
  in
  (if t.draining (t.pool_of ~index) then penalty_draining else 0)
  + (if t.queued ~index then penalty_queued else 0)
  + state_penalty + served

let note t ~index ~slot ~pos =
  Hashtbl.replace t.recent index
    (1 + match Hashtbl.find_opt t.recent index with Some c -> c | None -> 0);
  t.notes <- (slot, pos) :: t.notes

let planner t ~layout : Recovery.planner =
  {
    Recovery.rank =
      (fun ~slot ~pos ->
        rank t ~index:(Layout.node_of layout ~stripe:slot ~pos));
    note =
      (fun ~slot ~pos ->
        note t ~index:(Layout.node_of layout ~stripe:slot ~pos) ~slot ~pos);
  }

let source_reads t ~index =
  match Hashtbl.find_opt t.recent index with Some c -> c | None -> 0

let picks t = List.rev t.notes
