(* Topology benchmark: the CRUSH-style placement at volume scale.

   Four legs, all seeded and byte-deterministic (CI runs the JSON twice
   and compares):

   - scaling: aggregate throughput as G grows over a 360-disk,
     3-zone/6-rack topology with rack-level placement — the pool is big
     enough that the curve keeps climbing past the old 20-node pool's
     G=4 knee;
   - join: six disks (two new hosts) join mid-run; the background
     scheduler migrates exactly the members the selector hands to the new
     capacity, measured as blocks moved vs the minimal member diff;
   - drain: one host drains mid-run; every member it held migrates off
     live (the drained disks keep serving until rebuilt elsewhere);
   - rack_outage: a whole rack crashes and restarts under background
     failover; rack-level placement caps the damage at
     one member per group, inside n-k, so the checker stays clean.

   The join/drain legs report the data-movement cost against the
   optimal: optimal_blocks counts one block per (changed member, used
   stripe of its group) in the initial-to-final member diff, i.e. what
   a clairvoyant mover would rebuild.  moved/optimal ~ 1 is the
   minimal-movement story of the placement. *)

open Ecs_volume

let n = 5
let k = 3
let block_size = 4096
let maintenance_budget = 4000.

(* stale_write_age as in volume_bench: comfortably above two GC rounds. *)
let cfg () =
  Config.make ~t_p:1 ~block_size ~k ~n ~stale_write_age:0.3
    ~costs:
      {
        Config.default_costs with
        delta_per_byte = 1.0e-9;
        add_per_byte = 100.0e-9;
      }
    ()

(* ------------------------------------------------------------------ *)
(* Scaling: 3 zones x 2 racks x 10 hosts x 6 disks = 360 nodes.       *)

let scaling_spec =
  Topology.spec ~zones:3 ~racks_per_zone:2 ~hosts_per_rack:10
    ~disks_per_host:6 ()

let scaling_groups = [ 4; 8; 16; 32 ]
let scale_clients = 16
let scale_outstanding = 8
let scale_duration = 0.15

let scale_run ~groups =
  let topo = Topology.make scaling_spec in
  let placement =
    Placement.make_topo ~seed:0x7ace ~level:Topology.Rack ~groups
      ~nodes_per_group:n ~topology:topo ()
  in
  let sc = Shard_cluster.create ~seed:0xB0 ~placement (cfg ()) in
  let ck = Checker.create () in
  let r =
    Vrunner.run_profile ~background:(maintenance_budget, [ Monitor ])
      ~check:ck ~blocks:(256 * groups) ~sc
      ~tenants:
        (Vrunner.clients scale_clients
           (Profile.closed ~outstanding:scale_outstanding ~write_frac:0.5 ()))
      ~duration:scale_duration ()
  in
  let consistent =
    match Checker.check ck with Ok _ -> true | Error _ -> false
  in
  (r, Topology.size topo, consistent)

(* ------------------------------------------------------------------ *)
(* Elastic legs: 3 zones x 2 racks x 4 hosts x 3 disks = 72 nodes,
   G=8 at rack level.  Smaller than the scaling pool so the membership
   change actually lands members (and the run stays cheap). *)

let elastic_spec =
  Topology.spec ~zones:3 ~racks_per_zone:2 ~hosts_per_rack:4 ~disks_per_host:3
    ()

let elastic_groups = 8

(* Long enough past [change_at] for every queued migration to drain:
   each member move rebuilds ~all used stripes of its group at (n+1)
   tokens a stripe, interleaved with the maintenance round-robin on the
   same shared bucket — so the legs run a modest stripe count and a
   doubled background rate to converge with margin. *)
let elastic_duration = 0.6
let elastic_budget = 8000.
let elastic_blocks = 32 * elastic_groups
let change_at = 0.05

let elastic_clients () =
  Vrunner.clients 4 (Profile.closed ~outstanding:8 ~write_frac:0.5 ())

type elastic_outcome = {
  eo_result : Vrunner.result;
  eo_consistent : bool;
  eo_members_changed : int;
  eo_optimal_blocks : int;
  eo_converged : bool; (* final layout = selector ideal *)
}

let elastic_run ~event =
  let topo = Topology.make elastic_spec in
  let placement =
    Placement.make_topo ~seed:0x7ace ~level:Topology.Rack
      ~groups:elastic_groups ~nodes_per_group:n ~topology:topo ()
  in
  let sc = Shard_cluster.create ~seed:0xB0 ~placement (cfg ()) in
  let initial =
    Array.init elastic_groups (fun g -> Placement.group_nodes placement g)
  in
  let ck = Checker.create () in
  let r =
    Vrunner.run_profile ~events:[ (change_at, event) ]
      ~background:(elastic_budget, [ Monitor; Rebalance ])
      ~check:ck ~blocks:elastic_blocks ~sc ~tenants:(elastic_clients ())
      ~duration:elastic_duration ()
  in
  let consistent =
    match Checker.check ck with Ok _ -> true | Error _ -> false
  in
  let members_changed = ref 0 and optimal_blocks = ref 0 in
  for g = 0 to elastic_groups - 1 do
    let stripes = List.length (Shard_cluster.used_slots sc ~group:g) in
    Array.iteri
      (fun i p ->
        if Placement.member placement ~group:g ~index:i <> p then begin
          incr members_changed;
          optimal_blocks := !optimal_blocks + stripes
        end)
      initial.(g)
  done;
  {
    eo_result = r;
    eo_consistent = consistent;
    eo_members_changed = !members_changed;
    eo_optimal_blocks = !optimal_blocks;
    eo_converged = Placement.plan placement = [];
  }

(* Two fresh hosts (one per zone 0 rack 0 and zone 1 rack 3), three
   disks each.  Host ids continue past the spec's 24 built hosts. *)
let join_event sc =
  for _ = 1 to 3 do
    ignore (Shard_cluster.add_node sc ~host:24 ~rack:0 ~zone:0)
  done;
  for _ = 1 to 3 do
    ignore (Shard_cluster.add_node sc ~host:25 ~rack:3 ~zone:1)
  done

(* Drain every disk of the host serving group 0's first member — a
   membership change guaranteed to move at least one member. *)
let drain_event sc =
  let pl = Shard_cluster.placement sc in
  let topo = Shard_cluster.topology sc in
  let victim = Placement.member pl ~group:0 ~index:0 in
  let h = Topology.domain topo ~node:victim ~level:Topology.Host in
  for p = 0 to Shard_cluster.pool_size sc - 1 do
    if Topology.domain topo ~node:p ~level:Topology.Host = h then
      ignore (Shard_cluster.drain_node sc p)
  done

(* ------------------------------------------------------------------ *)
(* Rack outage under background failover: every disk of one rack fail-stops
   for 80 ms.  Rack-level placement keeps damage to one member per
   group (within n-k = 2), so service continues and history stays
   clean. *)

let outage_at = 0.08
let outage_len = 0.08

let rack_outage_run () =
  let topo = Topology.make elastic_spec in
  let placement =
    Placement.make_topo ~seed:0x7ace ~level:Topology.Rack
      ~groups:elastic_groups ~nodes_per_group:n ~topology:topo ()
  in
  let sc = Shard_cluster.create ~seed:0xB0 ~placement (cfg ()) in
  let event sc =
    let pl = Shard_cluster.placement sc in
    let topo = Shard_cluster.topology sc in
    let victim = Placement.member pl ~group:0 ~index:0 in
    let rk = Topology.domain topo ~node:victim ~level:Topology.Rack in
    for p = 0 to Shard_cluster.pool_size sc - 1 do
      if Topology.domain topo ~node:p ~level:Topology.Rack = rk then
        Shard_cluster.schedule_outage sc ~at:(Shard_cluster.now sc) ~node:p
          ~down_for:outage_len
    done
  in
  let ck = Checker.create () in
  let r =
    Vrunner.run_profile ~events:[ (outage_at, event) ]
      ~background:(elastic_budget, [ Monitor; Supervise ])
      ~check:ck ~blocks:elastic_blocks ~sc ~tenants:(elastic_clients ())
      ~duration:elastic_duration ()
  in
  let consistent =
    match Checker.check ck with Ok _ -> true | Error _ -> false
  in
  (r, consistent)

(* ------------------------------------------------------------------ *)

let elastic_fields (o : elastic_outcome) =
  let r = o.eo_result in
  let bg = r.Vrunner.background in
  let open Report in
  Volume_bench.variant_fields r o.eo_consistent
  @ [
      ("moves", J_int bg.rebalance_moves);
      ("blocks_moved", J_int bg.rebalance_blocks);
      ("moves_skipped", J_int bg.rebalance_skipped);
      ("rebalance_errors", J_int bg.rebalance_errors);
      ("members_changed", J_int o.eo_members_changed);
      ("optimal_blocks", J_int o.eo_optimal_blocks);
      ( "moved_vs_optimal",
        if o.eo_optimal_blocks = 0 then J_raw "null"
        else
          J_float
            ( float_of_int bg.rebalance_blocks
              /. float_of_int o.eo_optimal_blocks,
              3 ) );
      ("converged", J_bool o.eo_converged);
    ]

let print_elastic ~label (o : elastic_outcome) =
  let bg = o.eo_result.Vrunner.background in
  Report.print_run ~label o.eo_result.Vrunner.run;
  Printf.printf
    "%-34s    %d members changed | %d moves, %d blocks moved (optimal %d), %d \
     skipped | converged %b | consistent %b\n\
     %!"
    "" o.eo_members_changed bg.rebalance_moves bg.rebalance_blocks
    o.eo_optimal_blocks bg.rebalance_skipped o.eo_converged o.eo_consistent

let run ?json () =
  let ok = ref true in
  let scaling_entries =
    List.map
      (fun groups ->
        let r, pool, consistent = scale_run ~groups in
        ok := !ok && consistent;
        Report.print_run
          ~label:(Printf.sprintf "topology G=%d (%d disks)" groups pool)
          r.Vrunner.run;
        let open Report in
        J_obj
          (("groups", J_int groups)
           :: ("pool", J_int pool)
           :: ("total_mbs", J_float (r.Vrunner.run.Report.total_mbs, 3))
           :: Volume_bench.variant_fields r consistent))
      scaling_groups
  in
  let join = elastic_run ~event:join_event in
  print_elastic ~label:"topology join (+6 disks)" join;
  let drain = elastic_run ~event:drain_event in
  print_elastic ~label:"topology drain (1 host)" drain;
  ok :=
    !ok && join.eo_consistent && drain.eo_consistent && join.eo_converged
    && drain.eo_converged;
  let outage, outage_ok = rack_outage_run () in
  let outage_bg = outage.Vrunner.background in
  ok := !ok && outage_ok;
  Report.print_run ~label:"topology rack outage" outage.Vrunner.run;
  Printf.printf "%-34s    failovers %d, repairs %d | consistent %b\n%!" ""
    outage_bg.supervisor_failovers outage_bg.supervisor_repairs outage_ok;
  (match json with
  | None -> ()
  | Some path ->
    let c = cfg () in
    let open Report in
    let doc =
      J_obj
        [
          ( "config",
            J_obj
              [
                ("k", J_int c.Config.k);
                ("n", J_int c.Config.n);
                ("block_size", J_int c.Config.block_size);
                ("level", J_str "rack");
                ( "scaling_topology",
                  J_str
                    (Printf.sprintf "%dz x %dr x %dh x %dd"
                       scaling_spec.Topology.zones
                       scaling_spec.Topology.racks_per_zone
                       scaling_spec.Topology.hosts_per_rack
                       scaling_spec.Topology.disks_per_host) );
                ( "elastic_topology",
                  J_str
                    (Printf.sprintf "%dz x %dr x %dh x %dd"
                       elastic_spec.Topology.zones
                       elastic_spec.Topology.racks_per_zone
                       elastic_spec.Topology.hosts_per_rack
                       elastic_spec.Topology.disks_per_host) );
                ("maintenance_ops_per_sec", J_float (maintenance_budget, 0));
                ("scale_duration_s", J_float (scale_duration, 3));
                ("elastic_duration_s", J_float (elastic_duration, 3));
              ] );
          ("scaling", J_arr scaling_entries);
          ("join", J_obj (elastic_fields join));
          ("drain", J_obj (elastic_fields drain));
          ( "rack_outage",
            J_obj
              (Volume_bench.variant_fields outage outage_ok
              @ [
                  ( "supervisor_failovers",
                    J_int outage_bg.supervisor_failovers );
                  ("supervisor_repairs", J_int outage_bg.supervisor_repairs);
                ]) );
        ]
    in
    Report.write_file path doc;
    Printf.printf "wrote %s\n%!" path);
  if not !ok then exit 1
