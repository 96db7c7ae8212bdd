(* One fiber, one client and one token bucket run all background work.
   A job is a lazy sequence of units at one priority (laziness lists a
   group's used stripes only when the job reaches it); each turn runs
   the next unit of the first ready job.  Nothing runs concurrently, so
   no claims or priority sections are needed. *)

type task = Monitor | Supervise | Rebalance | Scrub of float

type counters = {
  mutable maintenance_passes : int;
  mutable maintenance_gc_rounds : int;
  mutable maintenance_errors : int;
  mutable maintenance_recoveries : int;
  mutable maintenance_backoffs : int;
  mutable supervisor_failovers : int;
  mutable supervisor_repairs : int;
  mutable supervisor_false_alarms : int;
  mutable supervisor_deferrals : int;
  mutable supervisor_catchups : int;
  mutable detections : (int * float) list;
  mutable repaired_at : (int * float) list;
  mutable rebalance_moves : int;
  mutable rebalance_blocks : int;
  mutable rebalance_skipped : int;
  mutable rebalance_errors : int;
  mutable scrub_passes : int;
  mutable scrub_report : Scrub.report;
  mutable scrub_errors : int;
}

let zero =
  {
    maintenance_passes = 0;
    maintenance_gc_rounds = 0;
    maintenance_errors = 0;
    maintenance_recoveries = 0;
    maintenance_backoffs = 0;
    supervisor_failovers = 0;
    supervisor_repairs = 0;
    supervisor_false_alarms = 0;
    supervisor_deferrals = 0;
    supervisor_catchups = 0;
    detections = [];
    repaired_at = [];
    rebalance_moves = 0;
    rebalance_blocks = 0;
    rebalance_skipped = 0;
    rebalance_errors = 0;
    scrub_passes = 0;
    scrub_report = Scrub.empty;
    scrub_errors = 0;
  }

(* Idle polling for what arrives from outside, the re-plan period of an
   idle move queue, and the monitor's per-group backoff. *)
let poll = 0.5e-3
let replan = 0.05
let backoff = 0.02
let backoff_max = 0.32

(* Job priorities, most urgent first. *)
let p_failover = 0
let p_catch_up = 1
let p_migration = 2
let p_scrub = 3
let p_monitor = 4

(* A free unit ([cost = 0]) continues work already paid for. *)
type work = { cost : float; run : unit -> unit }
type job = { prio : int; not_before : float; mutable rest : work Seq.t }
type deferral = { deadline : float; groups : int list }

type t = {
  sc : Shard_cluster.t;
  volume : Volume.t;
  budget : Budget.t;
  tasks : task list;
  until : float;
  c : counters;
  mutable jobs : job list; (* by priority, FIFO within one *)
  mutable other_units : int; (* units run outside monitor visits *)
  mutable yielding : bool; (* the last unit was a migration stripe *)
  mutable moving : int; (* group of the current (or last) move *)
  mutable down : int list; (* Down verdicts not yet handled *)
  deferred : (int, deferral) Hashtbl.t; (* Down nodes on a grace timer *)
  fail_streak : int array; (* consecutive failed visits, per group *)
  next_ok : float array; (* earliest next visit, per group *)
  mutable next_group : int;
  mutable next_replan : float;
  mutable next_sweep : float;
  mutable sweep_started : float option;
}

let counters t = { t.c with detections = t.c.detections }
let now t = Shard_cluster.now t.sc
let has t task = List.mem task t.tasks
let busy t prio = List.exists (fun j -> j.prio = prio) t.jobs
let stripe_cost t = float_of_int ((Shard_cluster.config t.sc).Config.n + 1)

let add_job t ~prio ?(not_before = neg_infinity) rest =
  let job = { prio; not_before; rest } in
  let before, after = List.partition (fun j -> j.prio <= prio) t.jobs in
  t.jobs <- before @ (job :: after);
  job

(* A unit that trips a retry limit is dropped; the monitor follows up. *)
let absorb ~errors f () =
  try f () with Client.Stuck _ | Client.Data_loss _ -> errors ()

(* A job of one unit per used stripe of each of [groups], listed when
   the job reaches the group, then the free [finish]. *)
let stripe_job t ~prio ?not_before ?finish ~cost ~errors groups f =
  let group g =
    let client = Volume.group_client t.volume g in
    Seq.map
      (fun slot -> { cost; run = absorb ~errors (f client slot) })
      (List.to_seq (Shard_cluster.used_slots t.sc ~group:g))
  in
  let finish = Option.map (fun run -> { cost = 0.; run }) finish in
  ignore
    (add_job t ~prio ?not_before
       (Seq.append (Seq.concat_map group groups) (Option.to_seq finish)))

(* Recover a stripe only if a lock-free check finds it degraded: a
   foreground write that met an INIT member, or the monitor, may have
   fixed it first.  True if it recovered. *)
let restore ~delta client slot =
  (not (Client.verify_slot client ~slot).Client.sh_healthy)
  && (Client.recover_slot client ~slot ~delta;
      true)

(* Monitor + GC, round-robin over the groups not backed off. *)

let record_failure t g =
  t.c.maintenance_errors <- t.c.maintenance_errors + 1;
  t.fail_streak.(g) <- t.fail_streak.(g) + 1;
  let penalty =
    min backoff_max (backoff *. (2. ** float_of_int (t.fail_streak.(g) - 1)))
  in
  t.next_ok.(g) <- now t +. penalty;
  t.c.maintenance_backoffs <- t.c.maintenance_backoffs + 1

let record_success t g =
  t.fail_streak.(g) <- 0;
  t.next_ok.(g) <- 0.

let eligible_at t g = t.next_ok.(g)

(* The probe sweep pays for the whole visit ([n] probes plus the GC
   round); one free unit per flagged stripe and the GC round follow, so
   other work can slip in between them.  A unit that trips a retry
   limit ends the visit and backs the group off. *)
let visit t g =
  let client = Volume.group_client t.volume g in
  let job = add_job t ~prio:p_monitor Seq.empty in
  let finish () =
    t.c.maintenance_passes <- t.c.maintenance_passes + 1;
    t.next_group <- (g + 1) mod Array.length t.next_ok
  in
  let unit ~cost f =
    let run () =
      let before = Client.recoveries_run client in
      (try f ()
       with Client.Stuck _ | Client.Data_loss _ ->
         job.rest <- Seq.empty;
         record_failure t g;
         finish ());
      t.c.maintenance_recoveries <-
        t.c.maintenance_recoveries + Client.recoveries_run client - before
    in
    { cost; run }
  in
  let gc () =
    Volume.collect_garbage t.volume ~group:g;
    t.c.maintenance_gc_rounds <- t.c.maintenance_gc_rounds + 1;
    record_success t g;
    finish ()
  in
  let probe () =
    let probed = t.other_units in
    (* Work that slipped in since the probe may have fixed the stripe. *)
    let recover slot () =
      if t.other_units = probed then Client.recover_slot client ~slot
      else ignore (restore ~delta:true client slot)
    in
    let flagged =
      Client.probe client ~slots:(Shard_cluster.used_slots t.sc ~group:g)
    in
    job.rest <-
      Seq.append
        (Seq.map
           (fun slot -> unit ~cost:0. (recover slot))
           (List.to_seq flagged))
        (Seq.return (unit ~cost:0. gc))
  in
  job.rest <- Seq.return (unit ~cost:(stripe_cost t) probe)

(* A group under migration is skipped: the move rebuilds its stripes
   one by one anyway. *)
let start_visit t =
  let groups = Array.length t.next_ok in
  let order = List.init groups (fun i -> (t.next_group + i) mod groups) in
  let due g =
    t.next_ok.(g) <= now t && not (g = t.moving && busy t p_migration)
  in
  let g = List.find_opt due order in
  Option.iter (visit t) g;
  g <> None

(* Supervision: failover, lazy floors and catch-up. *)

(* Each used stripe of each group through [stripe], then
   [repaired_at].  A stale write on a stripe that checked healthy is
   left to the monitor's next visit. *)
let repair_job t ~prio ?not_before node groups ~stripe =
  let finish () = t.c.repaired_at <- t.c.repaired_at @ [ (node, now t) ] in
  stripe_job t ~prio ?not_before ~finish ~cost:(stripe_cost t)
    ~errors:ignore (List.to_seq groups) stripe

let repaired t = t.c.supervisor_repairs <- t.c.supervisor_repairs + 1

(* Re-home the members off the dead node and rebuild them; the new
   members are INIT, where a delta probe can never succeed. *)
let fail_over t node ~only =
  let groups = Shard_cluster.fail_over ~only t.sc ~node in
  t.c.supervisor_failovers <- t.c.supervisor_failovers + List.length groups;
  if groups <> [] then
    repair_job t ~prio:p_failover node groups ~stripe:(fun client slot () ->
        ignore (restore ~delta:false client slot);
        repaired t)

(* The node came back with its state: delta repair where the member is
   merely epoch-stale.  Wait two quarantine periods for the clients'
   circuit breakers to half-open, or they would force full rebuilds. *)
let catch_up t node ~groups =
  let cfg = Shard_cluster.config t.sc in
  let quarantine = cfg.Config.health.Config.quarantine in
  repair_job t ~prio:p_catch_up
    ~not_before:(now t +. (2. *. quarantine))
    node groups
    ~stripe:(fun client slot () ->
      if restore ~delta:true client slot then repaired t)

let handle t node =
  if Shard_cluster.node_alive t.sc node then
    (* Down over a lossy but live link: the circuit breaker already
       shields the fast path, and moving data would be churn. *)
    t.c.supervisor_false_alarms <- t.c.supervisor_false_alarms + 1
  else begin
    let cfg = Shard_cluster.config t.sc in
    let pl = Shard_cluster.placement t.sc in
    let live g =
      Array.to_list (Placement.group_nodes pl g)
      |> List.filter (Shard_cluster.node_alive t.sc)
      |> List.length
    in
    (* A group still at the repair floor can wait out a transient
       outage; with the default floor (n) every group is urgent. *)
    let urgent, deferrable =
      List.partition
        (fun g -> live g < Config.effective_floor cfg)
        (Placement.groups_on pl node)
    in
    if urgent <> [] then fail_over t node ~only:urgent;
    if deferrable <> [] && not (Hashtbl.mem t.deferred node) then begin
      let deadline = now t +. cfg.Config.repair.Config.repair_grace in
      t.c.supervisor_deferrals <- t.c.supervisor_deferrals + 1;
      Hashtbl.replace t.deferred node { deadline; groups = deferrable }
    end
  end

(* Grace timers: a node that is back catches up in place; an expired
   timer fails over what the node still hosts. *)
let check_deferred t =
  Hashtbl.filter_map_inplace
    (fun node d ->
      if Shard_cluster.node_alive t.sc node then (
        t.c.supervisor_catchups <- t.c.supervisor_catchups + 1;
        catch_up t node ~groups:d.groups;
        None)
      else if now t < d.deadline then Some d
      else (
        fail_over t node ~only:d.groups;
        None))
    t.deferred

(* One failover at a time: a verdict that waits out another failover
   gets a fresh liveness check, so a blip that ended meanwhile moves no
   data. *)
let rec supervise t =
  if not (busy t p_failover) then begin
    check_deferred t;
    match t.down with
    | node :: rest ->
      t.down <- rest;
      handle t node;
      supervise t
    | [] -> ()
  end

(* Migration: one move at a time, re-validated when dequeued. *)

let valid t (mv : Placement.move) =
  let pl = Shard_cluster.placement t.sc in
  mv.Placement.mv_dst < Placement.pool pl
  && Placement.member pl ~group:mv.mv_group ~index:mv.mv_index = mv.mv_src
  && Shard_cluster.node_alive t.sc mv.mv_dst
  && Topology.weight (Placement.topology pl) mv.mv_dst > 0.
  && not (Array.mem mv.mv_dst (Placement.group_nodes pl mv.mv_group))

(* Reassign + remap to a fresh INIT member, then rebuild each used
   stripe there; the source keeps serving until then. *)
let migrate t (mv : Placement.move) =
  let g = mv.Placement.mv_group in
  t.moving <- g;
  Placement.reassign (Shard_cluster.placement t.sc) ~group:g
    ~index:mv.mv_index ~node:mv.mv_dst;
  ignore (Directory.remap (Shard_cluster.group_directory t.sc g) mv.mv_index);
  t.c.rebalance_moves <- t.c.rebalance_moves + 1;
  let errors () = t.c.rebalance_errors <- t.c.rebalance_errors + 1 in
  let stripe client slot () =
    ignore (restore ~delta:false client slot);
    t.c.rebalance_blocks <- t.c.rebalance_blocks + 1
  in
  stripe_job t ~prio:p_migration ~cost:(stripe_cost t) ~errors (Seq.return g)
    stripe

let rec rebalance t =
  match Shard_cluster.take_move t.sc with
  | Some mv when valid t mv -> migrate t mv
  | Some _ ->
    t.c.rebalance_skipped <- t.c.rebalance_skipped + 1;
    rebalance t
  | None ->
    if now t >= t.next_replan then begin
      t.next_replan <- now t +. replan;
      if Shard_cluster.plan_rebalance t.sc <> [] then rebalance t
    end

(* Scrub: a sweep over every used stripe, then the rest of the period
   idle, so a generous budget does not become a hot loop. *)

let sweep t period =
  let started = now t in
  t.sweep_started <- Some started;
  let errors () = t.c.scrub_errors <- t.c.scrub_errors + 1 in
  let cost = (2. *. stripe_cost t) -. 1. (* 2n + 1 *) in
  let stripe client slot () =
    t.c.scrub_report <-
      Scrub.merge t.c.scrub_report (Scrub.scrub_slot client ~slot)
  in
  let finish () =
    t.sweep_started <- None;
    t.c.scrub_passes <- t.c.scrub_passes + 1;
    let elapsed = now t -. started in
    t.next_sweep <-
      (now t +. if elapsed < period then period -. elapsed else poll)
  in
  stripe_job t ~prio:p_scrub ~finish ~cost ~errors
    (Seq.init (Shard_cluster.groups t.sc) Fun.id)
    stripe

(* The scheduler. *)

let scrub_period t =
  List.find_map (function Scrub p -> Some p | _ -> None) t.tasks

(* Let each task add the work that has come due, then take the next
   unit of the first ready job.  Migration is not urgent: after each of
   its stripes the next turn goes to lower-priority work if any is
   ready, so a long drain does not stall the monitor.  Once the window
   has closed, only work already under way is offered. *)
let rec pick t =
  let open_ = now t < t.until in
  if open_ && has t Supervise then supervise t;
  if open_ && has t Rebalance && not (busy t p_migration) then rebalance t;
  let sweep_due = open_ && t.sweep_started = None && now t >= t.next_sweep in
  Option.iter (fun period -> if sweep_due then sweep t period) (scrub_period t);
  let ready j =
    j.not_before <= now t && not (t.yielding && j.prio = p_migration)
  in
  match List.find_opt ready t.jobs with
  | Some j -> (
    match j.rest () with
    | Seq.Cons (w, rest) ->
      j.rest <- rest;
      t.yielding <- j.prio = p_migration;
      if j.prio <> p_monitor then t.other_units <- t.other_units + 1;
      Some w
    | Seq.Nil ->
      t.jobs <- List.filter (fun j' -> j' != j) t.jobs;
      pick t)
  | None ->
    if open_ && has t Monitor && start_visit t then pick t
    else if t.yielding then begin
      t.yielding <- false;
      pick t
    end
    else None

(* Sleep until something may be ready. *)
let idle t =
  let now = now t in
  let soonest = Array.fold_left Float.min infinity t.next_ok in
  let wakes =
    List.map (fun j -> j.not_before) t.jobs
    @ (if has t Supervise || has t Rebalance then [ now +. poll ] else [])
    @ (if scrub_period t <> None then [ t.next_sweep ] else [])
    @
    if has t Monitor then
      [ now +. Float.max (1. /. Budget.rate t.budget) (soonest -. now) ]
    else []
  in
  Fiber.sleep_until (List.fold_left Float.min t.until wakes)

(* Pay for each unit before running it, until the window closes; free
   units still run after it, finishing work already paid for. *)
let rec run t =
  match pick t with
  | Some w when w.cost = 0. ->
    w.run ();
    run t
  | Some w when now t < t.until ->
    Budget.take t.budget w.cost;
    if now t < t.until then w.run ();
    run t
  | None when now t < t.until ->
    idle t;
    run t
  | _ ->
    (* A sweep the close cut short still counts. *)
    if t.sweep_started <> None then
      t.c.scrub_passes <- t.c.scrub_passes + 1

let start sc ~rate ~tasks ~until =
  let n = (Shard_cluster.config sc).Config.n in
  let scrub = List.exists (function Scrub _ -> true | _ -> false) tasks in
  (* Room for two of the costliest enabled unit. *)
  let cap = 2. *. float_of_int (if scrub then (2 * n) + 1 else n + 1) in
  let groups = Shard_cluster.groups sc in
  let t =
    {
      sc;
      volume = Volume.create sc ~id:9999;
      budget = Budget.create ~rate ~cap ~now:(fun () -> Shard_cluster.now sc);
      tasks;
      until;
      c = { zero with detections = [] };
      jobs = [];
      other_units = 0;
      yielding = false;
      moving = -1;
      down = [];
      deferred = Hashtbl.create 4;
      fail_streak = Array.make groups 0;
      next_ok = Array.make groups 0.;
      next_group = 0;
      next_replan = Shard_cluster.now sc +. replan;
      next_sweep = Shard_cluster.now sc;
      sweep_started = None;
    }
  in
  if has t Supervise then
    Shard_cluster.on_pool_health sc (fun ~now ~node ~state ->
        (* Hooks fire inside a client's call stack: only enqueue. *)
        if state = Health.Down && not (List.mem node t.down) then begin
          t.down <- t.down @ [ node ];
          t.c.detections <- t.c.detections @ [ (node, now) ]
        end);
  Shard_cluster.spawn sc (fun () -> run t);
  t
