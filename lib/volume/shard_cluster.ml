(* Simulated substrate for a sharded volume: one discrete-event network
   hosting a pool of [m] storage nodes, over which [G] independent AJX
   stripe groups are placed (see Placement).

   Each group gets its own directory, layout and per-(group, member)
   storage-node state, but members of co-located groups bind to the
   {e same} pool network node — so groups sharing a pool node contend
   for its NIC and CPU, which is exactly what bends the volume's
   scaling curve once the pool saturates.

   Failure model: pool nodes fail-stop ({!crash_node}) and restart
   ({!restart_node}).  A restart installs a fresh network node under the
   old site label and remaps every group member hosted there to a new
   generation (INIT slots, garbage contents); the maintenance layer's
   monitor then repairs the affected stripes (Sec 3.10 + Fig 6).  What a
   client sees of a dead node is the [remap_policy] (see [rpc_to_member]).
   Clients fail-stop too ({!crash_client}): their fibers unwind with
   [Client_crashed] and storage nodes see their locks expire. *)

exception Client_crashed of int

type remap_policy = [ `Auto | `Manual | `Stable ]

type group = {
  g_layout : Layout.t;
  g_dir : Directory.t;
  g_metrics : Metrics.t;
  g_touched : (int, unit) Hashtbl.t; (* stripes this group has served *)
}

type pool_node = {
  p_site : string;
  mutable p_net : Net.node;
  mutable p_restarts : int;
}

(* Ledger of injected at-rest faults, keyed by (group, member index,
   slot).  A fault is "detected" the first time any defense layer sees
   it — the node's own self-check (observed via [on_integrity_fail]) or
   the client-side verified-read / cross-check (observed via
   [Trace.Integrity_detected] in the trace sink) — at which point its
   detection lag is sampled and the entry retired.  Shared with the
   node factories, so it is built before [t]. *)
type integrity_log = {
  inj_src : Injector.t;
  inj_times : (int * int * int, float) Hashtbl.t;
  mutable inj_count : int;
  mutable det_count : int;
  mutable det_lag : float list; (* newest first *)
}

type t = {
  engine : Engine.t;
  net : Net.t;
  stats : Stats.t;
  cfg : Config.t;
  code : Rs_code.t;
  placement : Placement.t;
  remap_policy : remap_policy;
  crashed_clients : (int, unit) Hashtbl.t;
  pool : pool_node array ref; (* grows on add_node; read through !() *)
  groups : group array;
  client_nodes : (int, Net.node) Hashtbl.t;
  pending_moves : Placement.move Queue.t; (* migrations not yet started *)
  queued_slots : (int * int, unit) Hashtbl.t; (* (group, index) queued *)
  ilog : integrity_log;
  planners : (int * int, Repair_planner.t) Hashtbl.t; (* (id, group) *)
  mutable note_hooks : (float -> string -> unit) list;
  mutable pool_health_hooks :
    (now:float -> node:int -> state:Health.state -> unit) list;
}

let pool_site i = Printf.sprintf "p%d" i
let client_site id = Printf.sprintf "vc%d" id

(* Service times at a storage node beyond the generic per-message RPC
   overhead: block-touching operations pay a per-byte cost from the
   configured cost model, control operations a small constant. *)
let serve_cost cfg (req : Proto.request) =
  let costs = cfg.Config.costs in
  let per_byte = costs.Config.add_per_byte in
  let control = 0.5e-6 in
  match req with
  | Proto.Read | Proto.Read_checked | Proto.Get_meta | Proto.Delta_probe
  | Proto.Get_delta _ ->
    (* The whole block off "disk": to serve it (read, read_checked), to
       re-digest it for the self-check verdict (get_meta, delta_probe),
       or one block's worth of streaming off the byte-capped delta log
       (get_delta). *)
    control +. (per_byte *. float_of_int cfg.Config.block_size)
  | Proto.Swap { v; _ } -> control +. (per_byte *. float_of_int (Bytes.length
    v))
  | Proto.Add { dv; _ } -> control +. (per_byte *. float_of_int (Bytes.length
    dv))
  | Proto.Add_bcast { dv; _ } ->
    (* scale + add *)
    control
    +. ((per_byte +. costs.Config.delta_per_byte)
       *. float_of_int (Bytes.length dv))
  | Proto.Reconstruct { blk; _ } ->
    control +. (per_byte *. float_of_int (Bytes.length blk))
  | Proto.Apply_delta { entries; _ } ->
    control
    +. per_byte
       *. float_of_int
            (List.fold_left
               (fun a (e : Proto.delta_entry) -> a + Bytes.length e.Proto.d_dv)
               0 entries)
  | Proto.Gc_many { slots; _ } ->
    (* Each slot entry is one per-slot GC request's worth of work. *)
    control *. float_of_int (List.length slots)
  | Proto.Checktid _ | Proto.Trylock _ | Proto.Setlock _ | Proto.Get_state
  | Proto.Getrecent _ | Proto.Finalize _ | Proto.Gc_old _ | Proto.Gc_recent _
  | Proto.Probe _ | Proto.Mark_init ->
    control

(* First sighting of an injected fault by any defense layer: sample its
   detection lag and retire the ledger entry.  Re-detections of the same
   fault (a corrupt slot served twice before repair) only bump the raw
   stats counter. *)
let log_detection ~now ~stats ilog ~group ~index ~slot kind =
  Stats.incr stats kind;
  match Hashtbl.find_opt ilog.inj_times (group, index, slot) with
  | Some t0 ->
    Hashtbl.remove ilog.inj_times (group, index, slot);
    ilog.det_count <- ilog.det_count + 1;
    ilog.det_lag <- (now -. t0) :: ilog.det_lag
  | None -> ()

let create ?(net_config = Net.default_config) ?(rotate = true) ?(seed = 0xEC5)
    ?(remap_policy = `Stable) ?faults ?placement cfg =
  let placement =
    match placement with
    | None ->
      Placement.make ~groups:1 ~nodes_per_group:cfg.Config.n ~pool:cfg.Config.n
        ()
    | Some p ->
      if Placement.nodes_per_group p <> cfg.Config.n then
        invalid_arg
          "Shard_cluster.create: placement nodes_per_group <> config n";
      p
  in
  let engine = Engine.create ~seed () in
  let stats = Stats.create () in
  let net = Net.create engine ~config:net_config stats in
  (match faults with Some f -> Net.set_faults net f | None -> ());
  let code =
    Rs_code.create ~field:cfg.Config.field ~k:cfg.Config.k ~n:cfg.Config.n ()
  in
  let pool =
    ref
      (Array.init (Placement.pool placement) (fun i ->
           let node = Net.add_node net ~name:(pool_site i) in
           Net.set_site node (pool_site i);
           { p_site = pool_site i; p_net = node; p_restarts = 0 }))
  in
  let ilog =
    {
      inj_src = Injector.create ~seed:(seed lxor 0x1C4B5);
      inj_times = Hashtbl.create 16;
      inj_count = 0;
      det_count = 0;
      det_lag = [];
    }
  in
  let crashed_clients = Hashtbl.create 8 in
  let client_failed id = Hashtbl.mem crashed_clients id in
  let mk_group g =
    let layout = Layout.create ~rotate ~k:cfg.Config.k ~n:cfg.Config.n () in
    let factory ~index ~generation =
      let p = Placement.member placement ~group:g ~index in
      {
        Directory.net_node = !pool.(p).p_net;
        store =
          Storage_node.create
            ~alpha_for:(Layout.alpha_oracle layout code ~node:index)
            ~client_failed ~h:(Config.h cfg)
            ~on_integrity_fail:(fun ~slot status ->
              log_detection ~now:(Engine.now engine) ~stats ilog ~group:g
                ~index ~slot
                (match status with
                | Checksum.Stale_epoch -> "integrity.node_stale"
                | _ -> "integrity.node_detected"))
            ~now:(fun () -> Engine.now engine)
            ~delta_log_cap:cfg.Config.repair.Config.delta_log_cap
            ~tombs_cap:cfg.Config.repair.Config.tombs_cap
            ~block_size:cfg.Config.block_size
            ~init:(if generation = 0 then `Zeroed else `Garbage)
            ();
        generation;
      }
    in
    {
      g_layout = layout;
      g_dir = Directory.create ~n:cfg.Config.n factory;
      g_metrics = Metrics.create ();
      g_touched = Hashtbl.create 32;
    }
  in
  {
    engine;
    net;
    stats;
    cfg;
    code;
    placement;
    remap_policy;
    crashed_clients;
    pool;
    groups = Array.init (Placement.groups placement) mk_group;
    client_nodes = Hashtbl.create 8;
    pending_moves = Queue.create ();
    queued_slots = Hashtbl.create 16;
    ilog;
    planners = Hashtbl.create 8;
    note_hooks = [];
    pool_health_hooks = [];
  }

let engine t = t.engine
let net t = t.net
let stats t = t.stats
let config t = t.cfg
let code t = t.code
let placement t = t.placement
let now t = Engine.now t.engine
let groups t = Array.length t.groups

let group_layout t g = t.groups.(g).g_layout
let group_directory t g = t.groups.(g).g_dir
let group_metrics t g = t.groups.(g).g_metrics

let metrics t =
  let merged = Metrics.create () in
  Array.iter (fun g -> Metrics.merge_into ~dst:merged g.g_metrics) t.groups;
  merged

let touch t ~group ~slot = Hashtbl.replace t.groups.(group).g_touched slot ()

let used_slots t ~group =
  Hashtbl.fold (fun slot () acc -> slot :: acc) t.groups.(group).g_touched []
  |> List.sort compare

let pool_size t = Array.length !(t.pool)
let topology t = Placement.topology t.placement
let node_alive t p = Net.is_alive !(t.pool).(p).p_net

let client_crashed t id = Hashtbl.mem t.crashed_clients id

let crash_client t id =
  Hashtbl.replace t.crashed_clients id ();
  match Hashtbl.find_opt t.client_nodes id with
  | Some node -> Net.crash node
  | None -> ()

(* Raised at every environment interaction of a crashed client, so its
   fibers unwind (see [run]).  The emptiness test keeps the common
   no-crash case to one load. *)
let check_alive t id =
  if Hashtbl.length t.crashed_clients > 0 && client_crashed t id then
    raise (Client_crashed id)

let crash_node t p =
  if p < 0 || p >= pool_size t then
    invalid_arg "Shard_cluster.crash_node: pool index out of range";
  Net.crash !(t.pool).(p).p_net

(* Bring dead pool node [p] back under a fresh network node with the
   same site (so per-link fault policies and partitions stay in force),
   then apply [rejoin group index node] to every group member it hosts.
   [false] (and no-op) if the node is alive. *)
let bring_back t p ~caller rejoin =
  if p < 0 || p >= pool_size t then
    invalid_arg ("Shard_cluster." ^ caller ^ ": pool index out of range");
  let pn = !(t.pool).(p) in
  if Net.is_alive pn.p_net then false
  else begin
    pn.p_restarts <- pn.p_restarts + 1;
    let node =
      Net.add_node t.net ~name:(Printf.sprintf "%s.r%d" pn.p_site pn.p_restarts)
    in
    Net.set_site node pn.p_site;
    pn.p_net <- node;
    List.iter
      (fun g ->
        Array.iteri
          (fun index q -> if q = p then rejoin t.groups.(g) index node)
          (Placement.group_nodes t.placement g))
      (Placement.groups_on t.placement p);
    true
  end

(* Restart with the disks lost: every hosted member is remapped to the
   next generation with INIT slots and re-enters service through
   recovery (Sec 3.10). *)
let restart_node t p =
  ignore
    (bring_back t p ~caller:"restart_node" (fun grp index _ ->
         ignore (Directory.remap grp.g_dir index)))

let replace_node t p =
  crash_node t p;
  restart_node t p

(* Crash-recovery rejoin with state intact: the pool node comes back
   holding the same disks (same Storage_node stores), only its network
   identity changed.  Each hosted member is re-bound in place
   (generation bump, no remap), and its store is swept by
   [quarantine_inflight]: slots caught mid-write or mid-reconstruction
   are demoted to INIT (a recovery that ran while the node was away may
   have rolled their in-flight write back — undetectable locally), while
   sealed quiet slots keep their blocks and rejoin as cheap epoch-stale
   delta-repair targets instead of full rebuilds. *)
let revive_node t p =
  if
    bring_back t p ~caller:"revive_node" (fun grp index node ->
        let entry = Directory.rebind grp.g_dir index node in
        for _ = 1 to Storage_node.quarantine_inflight entry.Directory.store do
          Stats.incr t.stats "pool.slots_quarantined"
        done)
  then Stats.incr t.stats "pool.revives"

let schedule_outage t ~at ~node ~down_for =
  Engine.schedule t.engine ~at (fun () -> crash_node t node);
  Engine.schedule t.engine ~at:(at +. down_for) (fun () ->
      restart_node t node)

(* A blip: the node goes away and comes back {e with its state} — the
   transient-outage case delta repair and lazy repair floors target. *)
let schedule_blip t ~at ~node ~down_for =
  Engine.schedule t.engine ~at (fun () -> crash_node t node);
  Engine.schedule t.engine ~at:(at +. down_for) (fun () ->
      revive_node t node)

(* Failover (Sec 3.5 remap, but event-driven): every
   member hosted on the dead pool node is re-homed to an alive,
   least-loaded pool node not already serving that group, and its
   directory entry remapped to a fresh generation (INIT slots on the new
   host).  Destinations respecting the placement's failure-domain
   constraint are preferred; if the pool is too degraded to offer one,
   any alive non-member node serves (restoring redundancy beats keeping
   domains distinct).  Draining nodes (weight 0) are never chosen.
   Returns the affected groups, for targeted repair.  Members with no
   legal destination are left in place — calls to them keep reporting
   [`Node_down]. *)
let fail_over ?only t ~node =
  if node < 0 || node >= pool_size t then
    invalid_arg "Shard_cluster.fail_over: pool index out of range";
  if node_alive t node then
    invalid_arg "Shard_cluster.fail_over: node is alive";
  let topo = topology t in
  let eligible g =
    match only with None -> true | Some gs -> List.mem g gs
  in
  let moved = ref [] in
  List.iter
    (fun g ->
      if eligible g then
      let grp = t.groups.(g) in
      let members = Placement.group_nodes t.placement g in
      let moved_any = ref false in
      Array.iteri
        (fun index q ->
          if q = node then begin
            let loads = Placement.loads t.placement in
            let pick respect_domains =
              let best = ref None in
              Array.iteri
                (fun cand load ->
                  if
                    cand <> node && node_alive t cand
                    && Topology.weight topo cand > 0.
                    && not
                         (Array.exists
                            (fun m -> m = cand)
                            (Placement.group_nodes t.placement g))
                    && not
                         (respect_domains
                         && Placement.violates t.placement ~group:g ~index
                              ~node:cand)
                  then
                    match !best with
                    | Some (_, bl) when bl <= load -> ()
                    | _ -> best := Some (cand, load))
                loads;
              !best
            in
            match (match pick true with Some c -> Some c | None -> pick false)
            with
            | None -> ()
            | Some (cand, _) ->
              Placement.reassign t.placement ~group:g ~index ~node:cand;
              ignore (Directory.remap grp.g_dir index);
              moved_any := true
          end)
        members;
      if !moved_any then moved := g :: !moved)
    (Placement.groups_on t.placement node);
  List.rev !moved

(* ------------------------------------------------------------------ *)
(* Elastic membership.  [add_node]/[drain_node] change the topology,
   re-run the placement selector and enqueue the resulting diff as
   pending moves; {!Background} drains the queue and performs the
   actual live migration (reassign + remap + Fig 6 rebuild).  Nothing
   migrates synchronously — capacity changes are cheap metadata edits,
   the data follows under the background budget. *)

(* Queue the placement diff, deduplicating on (group, index): a member
   already scheduled to move keeps its first destination until the
   scheduler picks it up (it re-validates against the live placement
   anyway). *)
let plan_rebalance t =
  let fresh =
    List.filter
      (fun mv ->
        not (Hashtbl.mem t.queued_slots (mv.Placement.mv_group, mv.mv_index)))
      (Placement.plan t.placement)
  in
  List.iter
    (fun mv ->
      Hashtbl.replace t.queued_slots (mv.Placement.mv_group, mv.mv_index) ();
      Queue.push mv t.pending_moves)
    fresh;
  fresh

let add_node ?weight t ~host ~rack ~zone =
  let topo = topology t in
  let id = Topology.add_node ?weight topo ~host ~rack ~zone in
  let node = Net.add_node t.net ~name:(pool_site id) in
  Net.set_site node (pool_site id);
  let pn = { p_site = pool_site id; p_net = node; p_restarts = 0 } in
  t.pool := Array.append !(t.pool) [| pn |];
  ignore (plan_rebalance t);
  id

let drain_node t p =
  if p < 0 || p >= pool_size t then
    invalid_arg "Shard_cluster.drain_node: pool index out of range";
  Topology.set_weight (topology t) p 0.;
  plan_rebalance t

let take_move t =
  match Queue.take_opt t.pending_moves with
  | None -> None
  | Some mv ->
    Hashtbl.remove t.queued_slots (mv.Placement.mv_group, mv.mv_index);
    Some mv

(* ------------------------------------------------------------------ *)
(* At-rest integrity faults, addressed by (group, member index, slot).
   Injections are ledgered so detection lag can be reported; see
   [integrity_log]. *)

let corrupt_member t ~group ~index ~slot =
  let entry = Directory.lookup t.groups.(group).g_dir index in
  let xors = Injector.flips t.ilog.inj_src ~len:t.cfg.Config.block_size in
  let hit = Storage_node.corrupt_block entry.Directory.store ~slot ~xors in
  if hit then begin
    t.ilog.inj_count <- t.ilog.inj_count + 1;
    Hashtbl.replace t.ilog.inj_times (group, index, slot) (Engine.now t.engine);
    Stats.incr t.stats "faults.corrupt_injected"
  end;
  hit

type member_snapshot = Storage_node.snapshot

let snapshot_member t ~group ~index ~slot =
  let entry = Directory.lookup t.groups.(group).g_dir index in
  Storage_node.snapshot_slot entry.Directory.store ~slot

let rollback_member t ~group ~index ~slot snap =
  let entry = Directory.lookup t.groups.(group).g_dir index in
  let hit = Storage_node.rollback_slot entry.Directory.store ~slot snap in
  if hit then begin
    t.ilog.inj_count <- t.ilog.inj_count + 1;
    Hashtbl.replace t.ilog.inj_times (group, index, slot) (Engine.now t.engine);
    Stats.incr t.stats "faults.rollback_injected"
  end;
  hit

let integrity_injected t = t.ilog.inj_count
let integrity_detected t = t.ilog.det_count
let integrity_lag t = List.rev t.ilog.det_lag

let set_pool_link_faults t ~client ~node f =
  Net.set_link_faults t.net ~src:(client_site client) ~dst:(pool_site node) f;
  Net.set_link_faults t.net ~src:(pool_site node) ~dst:(client_site client) f

let note t event =
  let key =
    if String.starts_with ~prefix:"rpc." event then event else "note." ^ event
  in
  Stats.incr t.stats key;
  List.iter (fun hook -> hook (Engine.now t.engine) event) t.note_hooks

let on_note t hook = t.note_hooks <- hook :: t.note_hooks

let trace_sink t ~group:g ctx event =
  Metrics.sink t.groups.(g).g_metrics ctx event;
  (match event with
  | Trace.Integrity_detected { pos; fault } when ctx.Trace.slot >= 0 ->
    (* Client-side detection (verified read or cross-check): translate
       stripe position to the group member hosting it and mark the
       ledger, same as a node-side self-check hit. *)
    let index =
      Layout.node_of t.groups.(g).g_layout ~stripe:ctx.Trace.slot ~pos
    in
    log_detection ~now:(Engine.now t.engine) ~stats:t.stats t.ilog ~group:g
      ~index ~slot:ctx.Trace.slot
      (match fault with
      | `Stale -> "integrity.client_stale"
      | `Checksum -> "integrity.client_detected")
  | _ -> ());
  match Trace.legacy_note ctx event with Some s -> note t s | None -> ()

let client_node t ~id =
  match Hashtbl.find_opt t.client_nodes id with
  | Some n -> n
  | None ->
    let n = Net.add_node t.net ~name:(client_site id) in
    Hashtbl.replace t.client_nodes id n;
    n

(* One slot-addressed RPC to member [lnode] of group [g]; a dead member
   answers as the remap policy says (see the interface).  [`Manual]'s
   [`Timeout] matters because the request may have executed before the
   crash: the session layer resends the idempotent request, and each
   resend re-resolves the directory, landing on the replacement once
   the operator remaps the node.  Under [`Stable] and [`Manual] a call
   that raced a remap is retried against the fresh entry (the caller
   never sees a stale entry's failure), at most 3 times. *)
let rec rpc_to_member ?deadline t ~g ~caller ~src ~lnode ~slot req ~attempts =
  check_alive t caller;
  let grp = t.groups.(g) in
  let entry = Directory.lookup grp.g_dir lnode in
  let dst = entry.Directory.net_node in
  let serve () =
    Net.cpu_use dst (serve_cost t.cfg req);
    let resp = Storage_node.handle entry.Directory.store ~caller ~slot req in
    (resp, Proto.response_bytes resp)
  in
  let result =
    Net.rpc ?timeout:deadline t.net ~src ~dst
      ~tag:(Proto.request_tag req)
      ~req_bytes:(Proto.request_bytes req) ~serve
  in
  check_alive t caller;
  match result with
  | Ok resp -> Ok resp
  | Error Net.Timeout -> Error `Timeout
  | Error Net.Node_down -> (
    let retry () =
      rpc_to_member ?deadline t ~g ~caller ~src ~lnode ~slot req
        ~attempts:(attempts + 1)
    in
    let remapped () =
      attempts < 3
      && (Directory.lookup grp.g_dir lnode).Directory.generation
         <> entry.Directory.generation
    in
    match t.remap_policy with
    | `Stable -> if remapped () then retry () else Error `Node_down
    | `Manual ->
      if remapped () then retry ()
      else begin
        Stats.incr t.stats "rpc.timeout";
        Fiber.sleep
          (Option.value deadline ~default:(Net.config t.net).Net.rpc_timeout);
        Error `Timeout
      end
    | `Auto ->
      if attempts >= 3 then Error `Node_down
      else begin
        restart_node t (Placement.member t.placement ~group:g ~index:lnode);
        retry ()
      end)

let transport t ~id ~group:g : Transport.t =
  let src = client_node t ~id in
  let grp = t.groups.(g) in
  let call ?deadline ~slot ~pos req =
    touch t ~group:g ~slot;
    let lnode = Layout.node_of grp.g_layout ~stripe:slot ~pos in
    rpc_to_member ?deadline t ~g ~caller:id ~src ~lnode ~slot req ~attempts:0
  in
  let call_node ?deadline ~node req =
    rpc_to_member ?deadline t ~g ~caller:id ~src ~lnode:node ~slot:0 req
      ~attempts:0
  in
  let broadcast ~slot ~poss req =
    check_alive t id;
    let lnodes =
      List.map
        (fun pos -> (pos, Layout.node_of grp.g_layout ~stripe:slot ~pos))
        poss
    in
    let entries =
      List.map (fun (pos, ln) -> (pos, Directory.lookup grp.g_dir ln)) lnodes
    in
    let dsts = List.map (fun (_, e) -> e.Directory.net_node) entries in
    let serve dst_node =
      let _, entry =
        List.find (fun (_, e) -> e.Directory.net_node == dst_node) entries
      in
      Net.cpu_use dst_node (serve_cost t.cfg req);
      let resp =
        Storage_node.handle entry.Directory.store ~caller:id ~slot req
      in
      (resp, Proto.response_bytes resp)
    in
    let results =
      Net.broadcast t.net ~src ~dsts
        ~tag:(Proto.request_tag req)
        ~req_bytes:(Proto.request_bytes req) ~serve
    in
    check_alive t id;
    List.map2
      (fun (pos, _) (_, r) ->
        ( pos,
          match r with
          | Ok resp -> Ok resp
          | Error Net.Node_down -> Error `Node_down
          | Error Net.Timeout -> Error `Timeout ))
      lnodes results
  in
  let pfor thunks =
    check_alive t id;
    (* Fiber.fork_all, except that a crashed client's thunks unwind
       inside their own fibers: catch there so every fiber of the fork
       finishes, then unwind here. *)
    let crashed = ref false in
    let fork f =
      let done_ = Fiber.Ivar.create () in
      Fiber.spawn t.engine (fun () ->
          (try f () with Client_crashed _ -> crashed := true);
          Fiber.Ivar.fill done_ ());
      done_
    in
    Fiber.join (List.map fork thunks);
    if !crashed then raise (Client_crashed id)
  in
  let sleep d =
    check_alive t id;
    Fiber.sleep d;
    check_alive t id
  in
  (module struct
    let client_id = id
    let call = call
    let call_node = call_node
    let broadcast = Some broadcast
    let pfor = pfor
    let sleep = sleep
    let now () = Engine.now t.engine

    let compute seconds =
      check_alive t id;
      Net.cpu_use src seconds
  end : Transport.S)

let on_pool_health t hook = t.pool_health_hooks <- hook :: t.pool_health_hooks

let make_group_client t ~id ~group =
  let grp = t.groups.(group) in
  (* Degraded-aware repair planner: volume-level signals (draining
     hosts, queued migrations, the client's own failure detector) steer
     which members serve repair reads.  One per (client, group); health
     is late-bound below because the client is built with the planner. *)
  let rp =
    Repair_planner.create
      ~pool_of:(fun ~index -> Placement.member t.placement ~group ~index)
      ~draining:(fun p -> Topology.weight (topology t) p <= 0.)
      ~queued:(fun ~index -> Hashtbl.mem t.queued_slots (group, index))
      ()
  in
  Hashtbl.replace t.planners (id, group) rp;
  let c =
    Client.of_transport
      ~sink:(trace_sink t ~group)
      ~locate:(fun ~slot ~pos -> Layout.node_of grp.g_layout ~stripe:slot ~pos)
      ~repair_planner:(Repair_planner.planner rp ~layout:grp.g_layout)
      t.cfg t.code (transport t ~id ~group)
  in
  Repair_planner.set_health rp (Client.health c);
  (* Aggregate every client's per-member failure detector into
     pool-node-level health events: member index -> hosting pool node
     via the (current) placement.  Hooks must only enqueue (they fire
     inside a transport call stack — see Background). *)
  Health.on_transition (Client.health c) (fun (tr : Health.transition) ->
      if t.pool_health_hooks <> [] then begin
        let p = Placement.member t.placement ~group ~index:tr.Health.node in
        List.iter
          (fun hook -> hook ~now:tr.Health.at ~node:p ~state:tr.Health.to_)
          t.pool_health_hooks
      end);
  c

let group_planner t ~id ~group = Hashtbl.find_opt t.planners (id, group)

let spawn t f = Fiber.spawn t.engine f
(* Fibers of crashed clients unwind out of the engine with
   [Client_crashed]; absorb them and keep simulating. *)
let rec run ?until t =
  match Engine.run ?until t.engine with
  | () -> ()
  | exception Client_crashed _ -> run ?until t
