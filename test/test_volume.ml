(* Tests for the sharded volume layer (Ecs_volume): placement
   determinism and load bounds, logical-block routing and roundtrips
   across groups, throughput scaling with the group count, outage +
   background maintenance repair with bounded tail-latency inflation,
   and byte-determinism of a seeded run. *)

open Ecs_volume

(* CI chaos matrix: the seeded runs below shift by ECS_SEED_OFFSET. *)
let seed_offset = Test_topology.seed_offset

let cfg ?(field = `Gf8) ?(block_size = 512) () =
  Config.make ~field ~t_p:1 ~block_size ~k:3 ~n:5 ()

let placement ~groups ~pool =
  Placement.make ~seed:0x7ace ~groups ~nodes_per_group:5 ~pool ()

(* ------------------------------------------------------------------ *)
(* Placement. *)

let test_placement_deterministic () =
  let p1 = placement ~groups:8 ~pool:16 in
  let p2 = placement ~groups:8 ~pool:16 in
  for g = 0 to 7 do
    Alcotest.(check (array int))
      (Printf.sprintf "group %d stable" g)
      (Placement.group_nodes p1 g)
      (Placement.group_nodes p2 g)
  done;
  let p3 = Placement.make ~seed:0x0dd ~groups:8 ~nodes_per_group:5 ~pool:16 () in
  Alcotest.(check bool) "seed changes the layout" true
    (Array.exists
       (fun g -> Placement.group_nodes p1 g <> Placement.group_nodes p3 g)
       (Array.init 8 Fun.id))

let test_placement_members_distinct () =
  let p = placement ~groups:8 ~pool:16 in
  for g = 0 to 7 do
    let members = Placement.group_nodes p g in
    Alcotest.(check int) "n members" 5 (Array.length members);
    let sorted = List.sort_uniq compare (Array.to_list members) in
    Alcotest.(check int)
      (Printf.sprintf "group %d members distinct" g)
      5 (List.length sorted);
    Array.iter
      (fun q -> Alcotest.(check bool) "in pool" true (q >= 0 && q < 16))
      members
  done

let test_placement_load_balance () =
  (* The straw selector is statistically even, not exactly even: with
     256 groups x 5 members over 20 equal-weight nodes (mean load 64)
     the max-min spread must stay well under the mean, and every node
     must carry some load. *)
  let p = Placement.make ~seed:1 ~groups:256 ~nodes_per_group:5 ~pool:20 () in
  let loads = Placement.loads p in
  let total = Array.fold_left ( + ) 0 loads in
  Alcotest.(check int) "loads sum to groups*n" 1280 total;
  Alcotest.(check bool)
    (Printf.sprintf "imbalance %d < mean 64" (Placement.max_load_imbalance p))
    true
    (Placement.max_load_imbalance p < 64);
  Array.iteri
    (fun q l ->
      Alcotest.(check bool) (Printf.sprintf "node %d loaded" q) true (l > 0))
    loads

let test_placement_locate_roundtrip () =
  let p = placement ~groups:6 ~pool:16 in
  for l = 0 to 100 do
    let g, b = Placement.locate p l in
    Alcotest.(check int) "round-robin group" (l mod 6) g;
    Alcotest.(check int) "inverse" l (Placement.logical p ~group:g ~block:b)
  done

(* ------------------------------------------------------------------ *)
(* Volume routing and roundtrips. *)

let test_volume_roundtrip_across_groups ~field () =
  let placement = placement ~groups:4 ~pool:12 in
  let sc = Shard_cluster.create ~seed:0x11 ~placement (cfg ~field ()) in
  let v = Volume.create sc ~id:0 in
  let block l = Bytes.make 512 (Char.chr (0x30 + l)) in
  Shard_cluster.spawn sc (fun () ->
      Volume.write_batch v (List.init 16 (fun l -> (l, block l)));
      List.iteri
        (fun l got ->
          Alcotest.(check bytes) (Printf.sprintf "block %d" l) (block l) got)
        (Volume.read_batch v (List.init 16 Fun.id)));
  Shard_cluster.run sc;
  (* 16 consecutive blocks over 4 groups: every group served some. *)
  for g = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "group %d touched" g)
      true
      (Shard_cluster.used_slots sc ~group:g <> [])
  done

let test_volume_range_io ~field () =
  let placement = placement ~groups:3 ~pool:8 in
  let sc = Shard_cluster.create ~seed:0x12 ~placement (cfg ~field ()) in
  let v = Volume.create sc ~id:0 in
  let data =
    Bytes.init (512 * 9) (fun i -> Char.chr ((i / 37) land 0xff))
  in
  Shard_cluster.spawn sc (fun () ->
      Volume.write_range v ~from_block:5 data;
      Alcotest.(check bytes) "range roundtrip" data
        (Volume.read_range v ~from_block:5 ~count:9));
  Shard_cluster.run sc

(* ------------------------------------------------------------------ *)
(* Scaling: more groups on a fixed client load means more aggregate
   bandwidth, until the pool saturates. *)

let scaling_run ~groups ~pool =
  let placement =
    Placement.make ~seed:0x7ace ~groups ~nodes_per_group:5 ~pool ()
  in
  (* Heavy per-byte server cost so the storage nodes, not the clients,
     are the bottleneck — scaling must come from adding groups. *)
  let cfg =
    Config.make ~t_p:1 ~block_size:4096 ~k:3 ~n:5
      ~costs:
        {
          Config.default_costs with
          delta_per_byte = 1.0e-9;
          add_per_byte = 100.0e-9;
        }
      ()
  in
  let sc = Shard_cluster.create ~seed:0x51 ~placement cfg in
  let r =
    Vrunner.run_profile ~blocks:(64 * groups) ~sc
      ~tenants:
        (Vrunner.clients 8 (Profile.closed ~outstanding:16 ~write_frac:0.5 ()))
      ~duration:0.15 ()
  in
  r.Vrunner.run.Report.total_mbs

let test_scaling_with_groups () =
  (* Straw placement overlaps members on a tight pool, so give the
     groups room: 8 groups x 5 members over 60 nodes keeps the hottest
     node near mean load and the aggregate must still scale. *)
  let one = scaling_run ~groups:1 ~pool:60 in
  let eight = scaling_run ~groups:8 ~pool:60 in
  Alcotest.(check bool)
    (Printf.sprintf "G=8 (%.1f MB/s) > 1.5x G=1 (%.1f MB/s)" eight one)
    true
    (eight > 1.5 *. one)

(* ------------------------------------------------------------------ *)
(* Outage + maintenance: a crashed pool node is repaired in the
   background after restart, the history stays consistent, and the tail
   latency of foreground writes is bounded (no starvation). *)

let outage_run ?(field = `Gf8) ~with_outage () =
  let placement = placement ~groups:4 ~pool:12 in
  let sc =
    Shard_cluster.create ~seed:(0x0c + seed_offset) ~placement (cfg ~field ())
  in
  let down_node = (Placement.group_nodes placement 0).(0) in
  let events =
    if with_outage then
      [ (0.08, fun sc -> Shard_cluster.schedule_outage sc
                           ~at:(Shard_cluster.now sc) ~node:down_node
                           ~down_for:0.03) ]
    else []
  in
  let ck = Checker.create () in
  let r =
    Vrunner.run_profile ~events ~background:(4000., [ Monitor ]) ~check:ck
      ~blocks:128 ~sc
      ~tenants:
        (Vrunner.clients 4 (Profile.closed ~outstanding:4 ~write_frac:0.5 ()))
      ~duration:0.4 ()
  in
  let consistent =
    match Checker.check ck with Ok _ -> true | Error _ -> false
  in
  (r, consistent)

let test_outage_repaired_in_background ~field () =
  let r, consistent = outage_run ~field ~with_outage:true () in
  let bg = r.Vrunner.background in
  Alcotest.(check bool) "history consistent" true consistent;
  Alcotest.(check bool) "maintenance ran" true (bg.maintenance_passes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "background recoveries ran (%d)" bg.maintenance_recoveries)
    true
    (bg.maintenance_recoveries > 0);
  Alcotest.(check int) "no write hit a retry limit" 0
    r.Vrunner.failures.Report.write_stuck;
  Alcotest.(check bool) "foreground still made progress" true
    (r.Vrunner.run.Report.write_ops > 1000)

let test_outage_p99_bounded () =
  let clean, _ = outage_run ~with_outage:false () in
  let faulted, _ = outage_run ~with_outage:true () in
  (* The affected group stalls for at most the outage + repair, so the
     p99 over all writes must stay within the outage length plus slack —
     background repair must not starve the foreground indefinitely. *)
  let bound = 0.03 +. (10. *. clean.Vrunner.pf_p99_write) +. 0.02 in
  Alcotest.(check bool)
    (Printf.sprintf "p99 %.4fs within %.4fs (clean %.4fs)"
       faulted.Vrunner.pf_p99_write bound clean.Vrunner.pf_p99_write)
    true
    (faulted.Vrunner.pf_p99_write < bound)

(* ------------------------------------------------------------------ *)
(* Maintenance backoff: the capped exponential per-group penalty. *)

let test_maintenance_backoff_policy () =
  let placement = placement ~groups:3 ~pool:8 in
  let sc = Shard_cluster.create ~seed:0x33 ~placement (cfg ()) in
  (* until = 0: the scheduler fiber exits immediately if run; the policy
     itself is driven by hand (the simulated clock stays at 0). *)
  let m = Background.start sc ~rate:2000. ~tasks:[ Monitor ] ~until:0. in
  let eligible () = Background.eligible_at m 1 in
  Alcotest.(check (float 0.)) "initially eligible" 0. (eligible ());
  List.iter
    (fun (what, penalty) ->
      Background.record_failure m 1;
      Alcotest.(check (float 1e-9)) what penalty (eligible ()))
    [
      ("first penalty = base", 0.02);
      ("doubles", 0.04);
      ("doubles again", 0.08);
      ("and again", 0.16);
      ("up to the cap", 0.32);
      ("capped", 0.32);
    ];
  Alcotest.(check (float 0.)) "other groups unaffected" 0.
    (Background.eligible_at m 0);
  let c = Background.counters m in
  Alcotest.(check int) "each failure counted" 6 c.maintenance_backoffs;
  Alcotest.(check int) "errors tracked" 6 c.maintenance_errors;
  Background.record_success m 1;
  Alcotest.(check (float 0.)) "success resets" 0. (eligible ());
  Background.record_failure m 1;
  Alcotest.(check (float 1e-9)) "streak restarts at base" 0.02 (eligible ())

let test_maintenance_backs_off_doomed_group () =
  (* Crash three of group 0's five member nodes permanently (beyond the
     n - k = 2 failure bound, no remap): every monitor visit to that
     group trips a retry limit.  The scheduler must absorb the failures,
     back the group off, and keep sweeping the healthy groups. *)
  let placement = placement ~groups:4 ~pool:12 in
  let sc =
    Shard_cluster.create ~seed:(0x0d + seed_offset) ~placement (cfg ())
  in
  let doomed = Placement.group_nodes placement 0 in
  let events =
    [
      ( 0.08,
        fun sc ->
          Shard_cluster.crash_node sc doomed.(0);
          Shard_cluster.crash_node sc doomed.(1);
          Shard_cluster.crash_node sc doomed.(2) );
    ]
  in
  let r =
    Vrunner.run_profile ~events ~background:(4000., [ Monitor ])
      ~blocks:128 ~sc
      ~tenants:
        (Vrunner.clients 4 (Profile.closed ~outstanding:4 ~write_frac:0.5 ()))
      ~duration:0.3 ()
  in
  let bg = r.Vrunner.background in
  Alcotest.(check bool)
    (Printf.sprintf "visits failed (%d errors)" bg.maintenance_errors)
    true
    (bg.maintenance_errors > 0);
  Alcotest.(check bool)
    (Printf.sprintf "backoff applied (%d)" bg.maintenance_backoffs)
    true
    (bg.maintenance_backoffs > 0);
  (* Backoff must cut the futile retries: far fewer failed visits than
     an every-round hammering of the doomed group would produce. *)
  Alcotest.(check bool)
    (Printf.sprintf "failures sublinear in passes (%d errors / %d passes)"
       bg.maintenance_errors bg.maintenance_passes)
    true
    (bg.maintenance_errors * 3 < bg.maintenance_passes)

(* ------------------------------------------------------------------ *)
(* Self-healing: a pool node crashes with NO scripted remap or restart;
   the health layer must detect it, the background scheduler fail the
   members over, and targeted recovery restore full resiliency — all within a
   deterministic, bounded time. *)

let crash_at = 0.08

let self_heal_run ?(field = `Gf8) () =
  let placement = placement ~groups:4 ~pool:12 in
  let sc =
    Shard_cluster.create ~seed:(0x0c + seed_offset) ~placement (cfg ~field ())
  in
  let down_node = (Placement.group_nodes placement 0).(0) in
  let events =
    [ (crash_at, fun sc -> Shard_cluster.crash_node sc down_node) ]
  in
  let ck = Checker.create () in
  let r =
    Vrunner.run_profile ~events ~background:(4000., [ Monitor; Supervise ])
      ~check:ck ~blocks:128 ~sc
      ~tenants:
        (Vrunner.clients 4 (Profile.closed ~outstanding:4 ~write_frac:0.5 ()))
      ~duration:0.4 ()
  in
  let consistent =
    match Checker.check ck with Ok _ -> true | Error _ -> false
  in
  (sc, down_node, r, consistent)

let test_self_healing_end_to_end ~field () =
  let sc, down_node, r, consistent = self_heal_run ~field () in
  let bg = r.Vrunner.background in
  Alcotest.(check bool) "history consistent" true consistent;
  Alcotest.(check bool)
    (Printf.sprintf "members failed over (%d)" bg.supervisor_failovers)
    true
    (bg.supervisor_failovers >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "stripes repaired (%d)" bg.supervisor_repairs)
    true
    (bg.supervisor_repairs >= 1);
  (* Detection latency: the first Down verdict for the crashed node must
     land within 20 ms of the crash. *)
  let detected =
    List.filter (fun (node, _) -> node = down_node) bg.detections
  in
  (match detected with
  | (_, t) :: _ ->
    Alcotest.(check bool)
      (Printf.sprintf "detected %.4fs after crash" (t -. crash_at))
      true
      (t >= crash_at && t -. crash_at < 0.02)
  | [] -> Alcotest.fail "crashed node never detected");
  (* MTTR: the node's groups finish targeted repair within 150 ms. *)
  let repaired =
    List.filter (fun (node, _) -> node = down_node) bg.repaired_at
  in
  (match repaired with
  | (_, t) :: _ ->
    Alcotest.(check bool)
      (Printf.sprintf "repaired %.4fs after crash" (t -. crash_at))
      true
      (t -. crash_at < 0.15)
  | [] -> Alcotest.fail "crashed node never repaired");
  (* Foreground survived the whole episode. *)
  Alcotest.(check bool) "foreground still made progress" true
    (r.Vrunner.run.Report.write_ops > 1000);
  (* Full resiliency restored: after a final monitor sweep, every used
     stripe of every group is healthy — all n members answer, none is
     INIT (the failed-over members really were rebuilt). *)
  let v = Volume.create sc ~id:77 in
  Shard_cluster.spawn sc (fun () ->
      for g = 0 to Volume.groups v - 1 do
        Volume.monitor_once v ~group:g
      done);
  Shard_cluster.run sc;
  let unhealthy = ref 0 in
  Shard_cluster.spawn sc (fun () ->
      for g = 0 to Volume.groups v - 1 do
        let client = Volume.group_client v g in
        List.iter
          (fun slot ->
            let h = Client.verify_slot client ~slot in
            if not h.Client.sh_healthy then incr unhealthy)
          (Shard_cluster.used_slots sc ~group:g)
      done);
  Shard_cluster.run sc;
  Alcotest.(check int) "every used stripe fully healthy" 0 !unhealthy

let test_self_healing_deterministic () =
  let go () =
    let _, _, r, consistent = self_heal_run () in
    ( consistent,
      r.Vrunner.background,
      r.Vrunner.failures,
      Report.to_string (Report.J_obj (Report.run_fields r.Vrunner.run)) )
  in
  let a = go () in
  let b = go () in
  Alcotest.(check bool) "identical self-healing runs" true (a = b)

(* ------------------------------------------------------------------ *)
(* Hedged reads: a lossy-but-alive pool node turns Suspect, reads with
   a suspect data node race a degraded decode against the primary. *)

let hedge_run ?(field = `Gf8) ~hedge () =
  let placement = placement ~groups:2 ~pool:8 in
  let cfg =
    Config.make ~field ~t_p:1 ~block_size:512 ~k:3 ~n:5
      ~health:{ Config.default_health with Config.hedge } ()
  in
  let sc = Shard_cluster.create ~seed:0x1e ~placement cfg in
  let victim = (Placement.group_nodes placement 0).(0) in
  let events =
    [
      ( 0.05,
        fun sc ->
          for c = 0 to 3 do
            Shard_cluster.set_pool_link_faults sc ~client:c ~node:victim
              (Some { Net.no_faults with Net.drop = 0.4 })
          done );
    ]
  in
  let ck = Checker.create () in
  let r =
    Vrunner.run_profile ~events ~check:ck
      ~blocks:64 ~sc
      ~tenants:
        (Vrunner.clients 4 (Profile.closed ~outstanding:4 ~write_frac:0.3 ()))
      ~duration:0.3 ()
  in
  let consistent =
    match Checker.check ck with
    | Ok _ -> true
    | Error violations ->
      List.iter (fun v -> Printf.printf "violation: %s\n%!" v) violations;
      false
  in
  (r, consistent)

let test_hedged_reads_fire_when_suspect ~field () =
  let r, consistent = hedge_run ~field ~hedge:true () in
  Alcotest.(check bool) "history consistent" true consistent;
  Alcotest.(check bool)
    (Printf.sprintf "hedges launched (%d)" r.Vrunner.failures.Report.hedges)
    true
    (r.Vrunner.failures.Report.hedges > 0);
  Alcotest.(check bool) "suspicion raised" true
    (r.Vrunner.failures.Report.quarantines >= 0);
  let off, off_consistent = hedge_run ~field ~hedge:false () in
  Alcotest.(check bool) "hedge-off history consistent" true off_consistent;
  Alcotest.(check int) "no hedges when disabled" 0
    off.Vrunner.failures.Report.hedges

(* ------------------------------------------------------------------ *)
(* Determinism: identical seeds, identical everything. *)

let test_volume_run_deterministic () =
  let go () =
    let r, consistent = outage_run ~with_outage:true () in
    let rendered =
      Report.to_string (Report.J_obj (Report.run_fields r.Vrunner.run))
    in
    (r, consistent, rendered)
  in
  let a = go () in
  let b = go () in
  Alcotest.(check bool) "identical results" true (a = b)

(* ------------------------------------------------------------------ *)
(* Profile-driven multi-tenant runs: open-loop admission, QoS. *)

let test_budget_try_take () =
  let clock = ref 0. in
  let b = Budget.create ~rate:10. ~cap:5. ~now:(fun () -> !clock) in
  Alcotest.(check bool) "spend within cap" true (Budget.try_take b 3.);
  Alcotest.(check bool) "insufficient tokens" false (Budget.try_take b 3.);
  clock := 0.1;
  (* 2 left + 1 refilled = 3. *)
  Alcotest.(check bool) "refill unlocks" true (Budget.try_take b 3.);
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Budget.try_take: negative cost") (fun () ->
      ignore (Budget.try_take b (-1.)))

let profile_run ~tenants ?(groups = 2) ?(blocks = 96) () =
  let placement = placement ~groups ~pool:10 in
  let sc = Shard_cluster.create ~seed:0x51 ~placement (cfg ()) in
  Vrunner.run_profile ~warmup:0.02 ~blocks ~sc ~tenants ~duration:0.2 ()

(* An open-loop profile hot enough to overrun a small admission bound. *)
let flood ~rate ~max_inflight =
  let base = Option.get (Profile.find "random-rw") in
  {
    base with
    Profile.name = "flood";
    arrival = Profile.Open { rate; max_inflight };
  }

let test_open_loop_sheds_and_completes () =
  let tenants =
    [
      {
        Vrunner.tn_name = "hot";
        tn_profile = flood ~rate:20000. ~max_inflight:4;
        tn_qos_blocks_per_sec = None;
        tn_seed = 0xAB;
      };
    ]
  in
  let r = profile_run ~tenants () in
  let tr = List.hd r.Vrunner.pf_tenants in
  Alcotest.(check bool)
    (Printf.sprintf "drops under overload (%d)" tr.Vrunner.tr_drops)
    true (tr.Vrunner.tr_drops > 0);
  Alcotest.(check bool) "still completes work" true
    (tr.Vrunner.tr_reqs > 0);
  Alcotest.(check bool) "admission bound respected" true
    (r.Vrunner.pf_max_inflight <= 4)

let test_profile_run_deterministic () =
  let tenants =
    [
      {
        Vrunner.tn_name = "hot";
        tn_profile = flood ~rate:8000. ~max_inflight:16;
        tn_qos_blocks_per_sec = None;
        tn_seed = 0xAB;
      };
      {
        Vrunner.tn_name = "oltp";
        tn_profile = Option.get (Profile.find "db-oltp");
        tn_qos_blocks_per_sec = Some 500.;
        tn_seed = 0xCD;
      };
    ]
  in
  let a = profile_run ~tenants () in
  let b = profile_run ~tenants () in
  Alcotest.(check bool) "identical profile results" true (a = b)

let test_tenant_qos_isolation () =
  (* A greedy unmetered tenant floods the volume; a metered neighbour
     configured for 400 blocks/s must still get close to its share, and
     must not exceed it by more than bucket-burst slack. *)
  let metered_rate = 400. in
  let tenants =
    [
      {
        Vrunner.tn_name = "greedy";
        tn_profile = flood ~rate:20000. ~max_inflight:32;
        tn_qos_blocks_per_sec = None;
        tn_seed = 0xE1;
      };
      {
        Vrunner.tn_name = "metered";
        tn_profile = flood ~rate:4000. ~max_inflight:32;
        tn_qos_blocks_per_sec = Some metered_rate;
        tn_seed = 0xE2;
      };
    ]
  in
  let r = profile_run ~tenants () in
  let tr name =
    List.find (fun t -> t.Vrunner.tr_name = name) r.Vrunner.pf_tenants
  in
  let m = tr "metered" and g = tr "greedy" in
  let m_blocks = m.Vrunner.tr_blocks in
  let m_rate = float_of_int m_blocks /. r.Vrunner.run.Report.duration in
  Alcotest.(check bool)
    (Printf.sprintf "metered tenant gets its share (%.0f blocks/s)" m_rate)
    true
    (m_rate >= 0.7 *. metered_rate);
  Alcotest.(check bool)
    (Printf.sprintf "metered tenant capped near its share (%.0f blocks/s)"
       m_rate)
    true
    (m_rate <= 1.3 *. metered_rate);
  let g_blocks = g.Vrunner.tr_blocks in
  Alcotest.(check bool) "greedy tenant unconstrained by the meter" true
    (g_blocks > 2 * m_blocks)

(* A closed-loop profile run collects its own garbage and takes the
   background scheduler: a pool node crashes mid-run with no scripted
   remap, and failover repairs it while the tenant keeps going. *)
let test_profile_run_gc_and_background () =
  let placement = placement ~groups:4 ~pool:12 in
  let sc =
    Shard_cluster.create ~seed:(0x0e + seed_offset) ~placement (cfg ())
  in
  let down_node = (Placement.group_nodes placement 0).(0) in
  let events =
    [ (crash_at, fun sc -> Shard_cluster.crash_node sc down_node) ]
  in
  let tenants =
    [
      {
        Vrunner.tn_name = "oltp";
        tn_profile = Option.get (Profile.find "mixed-70-30");
        tn_qos_blocks_per_sec = None;
        tn_seed = 0xC1 + seed_offset;
      };
    ]
  in
  let r =
    Vrunner.run_profile ~events ~background:(4000., [ Monitor; Supervise ])
      ~blocks:128 ~sc ~tenants ~duration:0.4 ()
  in
  let gc_msgs = Stats.counter (Shard_cluster.stats sc) "msgs.gc_recent_many" in
  Alcotest.(check bool)
    (Printf.sprintf "GC RPCs sent (%.0f)" gc_msgs)
    true (gc_msgs > 0.);
  Alcotest.(check bool) "crashed node repaired" true
    (r.Vrunner.background.repaired_at <> []);
  Alcotest.(check int) "no failed request" 0 r.Vrunner.pf_stalls

(* Fig 7 pacing in the simulator: sim-mixed's shape (G = 4 groups of
   k = 4, n = 6 over 24 nodes, 4 KiB blocks, mixed-70-30) at a smaller
   size.  Every GC round, from its [Op_gc] start to its end, must fit in
   the [gc_every] period (0.05 s) that is meant to pace it. *)
let test_sim_gc_round_fits_its_period () =
  let cfg =
    Config.make ~t_p:1 ~block_size:4096 ~k:4 ~n:6 ~stale_write_age:0.3 ()
  in
  let placement =
    Placement.make ~seed:0x7ace ~groups:4 ~nodes_per_group:6 ~pool:24 ()
  in
  let sc = Shard_cluster.create ~seed:(0xF0 + seed_offset) ~placement cfg in
  let tenants =
    [
      {
        Vrunner.tn_name = "mixed";
        tn_profile = Option.get (Profile.find "mixed-70-30");
        tn_qos_blocks_per_sec = None;
        tn_seed = 1 + seed_offset;
      };
    ]
  in
  ignore (Vrunner.run_profile ~blocks:256 ~sc ~tenants ~duration:0.3 ());
  let gc = Metrics.latency (Shard_cluster.metrics sc) Trace.Op_gc in
  Alcotest.(check bool)
    (Printf.sprintf "GC rounds ran (%d)" gc.Metrics.l_count)
    true (gc.Metrics.l_count > 0);
  Alcotest.(check bool)
    (Printf.sprintf "longest GC round %.4f s < 0.05 s" gc.Metrics.l_max)
    true
    (gc.Metrics.l_max < 0.05)

(* An open-loop, multi-block profile run takes the checker: every block
   of every request is recorded, and the history is regular. *)
let test_profile_run_check () =
  let sc =
    Shard_cluster.create ~seed:(0x51 + seed_offset)
      ~placement:(placement ~groups:2 ~pool:10) (cfg ())
  in
  let oltp = Option.get (Profile.find "db-oltp") in
  let tenants =
    [
      {
        Vrunner.tn_name = "oltp";
        tn_profile = oltp;
        tn_qos_blocks_per_sec = None;
        tn_seed = 0xCD + seed_offset;
      };
    ]
  in
  let ck = Checker.create () in
  let r =
    Vrunner.run_profile ~warmup:0. ~check:ck ~blocks:96 ~sc ~tenants
      ~duration:0.2 ()
  in
  (match Checker.check ck with
  | Ok _ -> ()
  | Error v ->
    Alcotest.failf "%d history violations, first: %s" (List.length v)
      (List.hd v));
  Alcotest.(check int) "no failed request" 0 r.Vrunner.pf_stalls;
  Alcotest.(check bool) "multi-block requests ran" true
    (List.exists (fun (size, _) -> size > 1) r.Vrunner.pf_sizes);
  (* With no warm-up, only the requests still in flight at the end of
     the window go uncounted: at most [max_inflight] of them, each of at
     most [max_size] blocks. *)
  let slack =
    match oltp.Profile.arrival with
    | Profile.Open { max_inflight; _ } -> max_inflight * Profile.max_size oltp
    | Profile.Closed _ -> assert false
  in
  let recorded = Checker.reads ck + Checker.writes ck in
  let counted = (List.hd r.Vrunner.pf_tenants).Vrunner.tr_blocks in
  Alcotest.(check bool)
    (Printf.sprintf "%d block ops recorded for %d counted blocks" recorded
       counted)
    true
    (recorded >= counted && recorded <= counted + slack)

(* ------------------------------------------------------------------ *)
(* Background scrubber: at-rest faults on redundant members (which no
   foreground read touches) are detected and repaired by the budgeted
   sweep, with a bounded detection lag. *)

let test_scrubber_detects_at_rest_faults () =
  let sc =
    Shard_cluster.create ~seed:(0xEC5 + seed_offset)
      ~placement:(placement ~groups:2 ~pool:8)
      (Config.make ~t_p:1 ~block_size:512 ~k:3 ~n:5 ~stale_write_age:10. ())
  in
  (* Materialize two stripes per group outside the measured run, and
     snapshot a redundant member for the rollback fault. *)
  let snaps = Array.make 2 None in
  Shard_cluster.spawn sc (fun () ->
      for g = 0 to 1 do
        let client = Shard_cluster.make_group_client sc ~id:(500 + g) ~group:g in
        let block c = Bytes.make 512 c in
        for s = 0 to 1 do
          for i = 0 to 2 do
            Client.write client ~slot:s ~i (block 'a')
          done
        done;
        let layout = Shard_cluster.group_layout sc g in
        let r0 = Layout.node_of layout ~stripe:0 ~pos:3 in
        snaps.(g) <- Shard_cluster.snapshot_member sc ~group:g ~index:r0 ~slot:0;
        Client.write client ~slot:0 ~i:0 (block 'b')
      done);
  Shard_cluster.run sc;
  let inject sc =
    for g = 0 to 1 do
      let layout = Shard_cluster.group_layout sc g in
      ignore
        (Shard_cluster.corrupt_member sc ~group:g
           ~index:(Layout.node_of layout ~stripe:1 ~pos:4)
           ~slot:1);
      match snaps.(g) with
      | Some snap ->
        ignore
          (Shard_cluster.rollback_member sc ~group:g
             ~index:(Layout.node_of layout ~stripe:0 ~pos:3)
             ~slot:0 snap)
      | None -> ()
    done
  in
  let r =
    Vrunner.run_profile ~events:[ (0.05, inject) ]
      ~background:(4800., [ Scrub 0.01 ]) ~blocks:12 ~sc
      ~tenants:
        (Vrunner.clients 2 (Profile.closed ~outstanding:2 ~write_frac:0. ()))
      ~duration:0.3 ()
  in
  Alcotest.(check int) "all faults injected" 4 r.Vrunner.corruptions_injected;
  Alcotest.(check int) "all faults detected" 4 r.Vrunner.corruptions_detected;
  Alcotest.(check int) "nothing left unrepaired" 0
    r.Vrunner.background.scrub_report.unrepaired;
  Alcotest.(check int) "lag sampled per fault" 4
    (List.length r.Vrunner.detection_lag);
  Alcotest.(check bool) "scrubber actually swept" true
    (r.Vrunner.background.scrub_passes > 1);
  List.iter
    (fun lag ->
      Alcotest.(check bool)
        (Printf.sprintf "lag %.3f s within the run" lag)
        true
        (lag > 0. && lag < 0.3))
    r.Vrunner.detection_lag

(* ------------------------------------------------------------------ *)
(* Lazy repair floors: a transient blip against a group still at the
   repair floor must be parked on the grace timer and caught up in
   place when the node returns — no failover, no re-homing — while the
   default (eager) config fails over immediately.  Same seed, same
   blip, only the repair policy differs. *)

let lazy_floor_run ~repair =
  let cfg =
    Config.make ~t_p:1 ~block_size:512 ~k:3 ~n:5 ~stale_write_age:0.1 ~repair ()
  in
  let placement = placement ~groups:2 ~pool:8 in
  let sc = Shard_cluster.create ~seed:(0x0c + seed_offset) ~placement cfg in
  let victim = (Placement.group_nodes placement 0).(0) in
  Shard_cluster.schedule_blip sc ~at:0.08 ~node:victim ~down_for:0.06;
  let ck = Checker.create () in
  let r =
    Vrunner.run_profile ~events:[] ~background:(4000., [ Monitor; Supervise ])
      ~check:ck ~blocks:64 ~sc
      ~tenants:
        (Vrunner.clients 4 (Profile.closed ~outstanding:4 ~write_frac:0.5 ()))
      ~duration:0.3 ()
  in
  let consistent =
    match Checker.check ck with Ok _ -> true | Error _ -> false
  in
  (r.Vrunner.background, consistent)

let test_lazy_floor_defers_transient_blip () =
  (* Default policy: floor n, grace 0 — every affected group is urgent
     and the blip costs a failover (eager baseline of the PR's repair
     frontier). *)
  let eager, ok = lazy_floor_run ~repair:Config.default_repair in
  Alcotest.(check bool) "eager: history consistent" true ok;
  Alcotest.(check bool) "eager: failed over" true
    (eager.supervisor_failovers >= 1);
  Alcotest.(check int) "eager: nothing deferred" 0 eager.supervisor_deferrals;
  (* Floor n-1 with a grace longer than the outage: one member down
     leaves every group at the floor, so the scheduler parks the node
     on the grace timer and catches its stripes up in place. *)
  let lazy_, ok =
    lazy_floor_run
      ~repair:
        {
          Config.default_repair with
          Config.repair_floor = Some 4;
          repair_grace = 0.2;
        }
  in
  Alcotest.(check bool) "lazy: history consistent" true ok;
  Alcotest.(check int) "lazy: no failover" 0 lazy_.supervisor_failovers;
  Alcotest.(check bool) "lazy: blip deferred" true
    (lazy_.supervisor_deferrals >= 1);
  Alcotest.(check bool) "lazy: caught up within grace" true
    (lazy_.supervisor_catchups >= 1)

(* ------------------------------------------------------------------ *)
(* Degraded-aware repair-source planning: draining and mid-migration
   members must rank behind healthy ones for rebuild reads and delta
   pulls, and the draining penalty must dominate the spread feedback —
   a group mid-migration is never delta-repaired against its draining
   source while an alternative exists (regression for the planner's
   penalty ordering). *)

let test_repair_planner_avoids_draining_sources () =
  let pl =
    Repair_planner.create
      ~pool_of:(fun ~index -> index)
      ~draining:(fun node -> node = 3)
      ~queued:(fun ~index -> index = 4)
      ()
  in
  let layout = Layout.create ~rotate:false ~k:3 ~n:5 () in
  let p = Repair_planner.planner pl ~layout in
  let healthy = p.Recovery.rank ~slot:0 ~pos:2 in
  let queued = p.Recovery.rank ~slot:0 ~pos:4 in
  let draining = p.Recovery.rank ~slot:0 ~pos:3 in
  Alcotest.(check bool) "mid-migration ranks behind healthy" true
    (queued > healthy);
  Alcotest.(check bool) "draining ranks behind mid-migration" true
    (draining > queued);
  (* Spread feedback: serving repairs raises a member's rank, but never
     above a draining source. *)
  for _ = 1 to 5 do
    p.Recovery.note ~slot:0 ~pos:4
  done;
  Alcotest.(check int) "note feedback recorded" 5
    (Repair_planner.source_reads pl ~index:4);
  Alcotest.(check bool) "spread penalty applied" true
    (p.Recovery.rank ~slot:0 ~pos:4 > queued);
  Alcotest.(check bool) "draining penalty still dominates" true
    (p.Recovery.rank ~slot:0 ~pos:3 > p.Recovery.rank ~slot:0 ~pos:4)

let test_drained_node_avoided_by_group_planner () =
  (* Integration: drain the pool node hosting a group member; the
     planner wired into that group's clients must immediately rank the
     member last (live placement consultation, no rebuild needed). *)
  let placement = placement ~groups:1 ~pool:8 in
  let sc = Shard_cluster.create ~seed:0x0c ~placement (cfg ()) in
  let _client = Shard_cluster.make_group_client sc ~id:0 ~group:0 in
  let pl =
    match Shard_cluster.group_planner sc ~id:0 ~group:0 with
    | Some pl -> pl
    | None -> Alcotest.fail "group client has no planner"
  in
  let layout = Shard_cluster.group_layout sc 0 in
  let p = Repair_planner.planner pl ~layout in
  let victim_index = 2 in
  let victim = (Placement.group_nodes placement 0).(victim_index) in
  (* rotate-true layouts permute members per stripe; map member index to
     slot 0's stripe position. *)
  let victim_pos = Layout.pos_of layout ~stripe:0 ~node:victim_index in
  let other_pos = Layout.pos_of layout ~stripe:0 ~node:((victim_index + 1) mod 5) in
  let before = p.Recovery.rank ~slot:0 ~pos:victim_pos in
  ignore (Shard_cluster.drain_node sc victim);
  Alcotest.(check bool) "draining raised the member's rank" true
    (p.Recovery.rank ~slot:0 ~pos:victim_pos > before);
  Alcotest.(check bool) "drained member ranks behind healthy peers" true
    (p.Recovery.rank ~slot:0 ~pos:victim_pos
    > p.Recovery.rank ~slot:0 ~pos:other_pos)

(* ------------------------------------------------------------------ *)
(* Single-group harness capabilities (client crashes, remap policy,
   default placement) on G > 1. *)

(* Two groups of five over five pool nodes: every pool node hosts a
   member of both groups. *)
let two_groups_on_five () = placement ~groups:2 ~pool:5

let test_crashed_client_locks_expire_in_both_groups () =
  (* Client 0 crashes while it holds the Fig 6 recovery locks of stripe
     0 in both groups.  The storage nodes' failure detector must expire
     those locks in both groups, so client 1's recoveries complete. *)
  let placement = two_groups_on_five () in
  let sc =
    Shard_cluster.create ~seed:(0x13 + seed_offset) ~placement (cfg ())
  in
  let block l = Bytes.make 512 (Char.chr (0x41 + l)) in
  let setup = Volume.create sc ~id:9 in
  Shard_cluster.spawn sc (fun () ->
      Volume.write_batch setup (List.init 6 (fun l -> (l, block l)));
      Shard_cluster.replace_node sc 0);
  Shard_cluster.run sc;
  let v0 = Volume.create sc ~id:0 in
  for g = 0 to 1 do
    Shard_cluster.spawn sc (fun () ->
        try Client.recover_slot (Volume.group_client v0 g) ~slot:0
        with Shard_cluster.Client_crashed _ -> ())
  done;
  Engine.schedule (Shard_cluster.engine sc)
    ~at:(Shard_cluster.now sc +. 600e-6)
    (fun () -> Shard_cluster.crash_client sc 0);
  Shard_cluster.run sc;
  for g = 0 to 1 do
    Alcotest.(check int)
      (Printf.sprintf "group %d recovery cut short" g)
      0
      (Client.recoveries_run (Volume.group_client v0 g))
  done;
  let v1 = Volume.create sc ~id:1 in
  Shard_cluster.spawn sc (fun () ->
      Fiber.sleep 0.5;
      for g = 0 to 1 do
        Client.recover_slot (Volume.group_client v1 g) ~slot:0
      done;
      List.iteri
        (fun l got ->
          Alcotest.(check bytes) (Printf.sprintf "block %d" l) (block l) got)
        (Volume.read_batch v1 (List.init 6 Fun.id)));
  Shard_cluster.run sc;
  for g = 0 to 1 do
    Alcotest.(check int)
      (Printf.sprintf "group %d recovered" g)
      1
      (Client.recoveries_run (Volume.group_client v1 g))
  done

let test_auto_remap_covers_every_hosted_group () =
  (* Under [`Auto], one client's [`Node_down] from a dead pool node
     restarts it, remapping its members in both groups at once. *)
  let placement = two_groups_on_five () in
  let sc =
    Shard_cluster.create ~seed:0x14 ~remap_policy:`Auto ~placement (cfg ())
  in
  let p = Placement.member placement ~group:0 ~index:0 in
  Shard_cluster.crash_node sc p;
  let (module T : Transport.S) = Shard_cluster.transport sc ~id:0 ~group:0 in
  let got = ref None in
  Shard_cluster.spawn sc (fun () ->
      got := Some (T.call_node ~node:0 Proto.Read));
  Shard_cluster.run sc;
  (match !got with
  | Some (Ok (Proto.R_read { block = None; _ })) -> ()
  | _ -> Alcotest.fail "expected the fresh INIT replacement to answer");
  Alcotest.(check bool) "pool node back" true (Shard_cluster.node_alive sc p);
  for g = 0 to 1 do
    Array.iteri
      (fun index q ->
        Alcotest.(check int)
          (Printf.sprintf "group %d member %d generation" g index)
          (if q = p then 1 else 0)
          (Directory.generation (Shard_cluster.group_directory sc g) index))
      (Placement.group_nodes placement g)
  done

let test_default_placement_is_identity () =
  (* Without a placement: one group over n pool nodes, member i on pool
     node i, and the default [`Stable] policy reports a dead member as
     [`Node_down]. *)
  let sc = Shard_cluster.create (cfg ()) in
  Alcotest.(check int) "one group" 1 (Shard_cluster.groups sc);
  Alcotest.(check int) "n pool nodes" 5 (Shard_cluster.pool_size sc);
  for i = 0 to 4 do
    Alcotest.(check int)
      (Printf.sprintf "member %d" i)
      i
      (Placement.member (Shard_cluster.placement sc) ~group:0 ~index:i)
  done;
  Shard_cluster.crash_node sc 3;
  let (module T : Transport.S) = Shard_cluster.transport sc ~id:0 ~group:0 in
  let got = ref None in
  Shard_cluster.spawn sc (fun () ->
      got := Some (T.call_node ~node:3 Proto.Read));
  Shard_cluster.run sc;
  match !got with
  | Some (Error `Node_down) -> ()
  | _ -> Alcotest.fail "expected a stable Node_down"

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  (* Everything that exercises the coding path runs at both fields; the
     placement and backoff-policy tests never touch a block and run
     once. *)
  let coding field tag =
    [
      t (tag ^ "roundtrip across groups") (test_volume_roundtrip_across_groups ~field);
      t (tag ^ "range I/O") (test_volume_range_io ~field);
      t (tag ^ "outage repaired in background") (test_outage_repaired_in_background ~field);
      t (tag ^ "self-healing end to end") (test_self_healing_end_to_end ~field);
      t (tag ^ "hedged reads fire when suspect") (test_hedged_reads_fire_when_suspect ~field);
    ]
  in
  ( "volume",
    [
      t "placement is seed-stable" test_placement_deterministic;
      t "placement members distinct and in pool" test_placement_members_distinct;
      t "placement load balance" test_placement_load_balance;
      t "locate/logical roundtrip" test_placement_locate_roundtrip;
      t "throughput scales with G" test_scaling_with_groups;
      t "p99 bounded under outage + maintenance" test_outage_p99_bounded;
      t "maintenance backoff policy" test_maintenance_backoff_policy;
      t "maintenance backs off a doomed group"
        test_maintenance_backs_off_doomed_group;
      t "self-healing deterministic" test_self_healing_deterministic;
      t "volume run deterministic" test_volume_run_deterministic;
      t "budget try_take" test_budget_try_take;
      t "open loop sheds and completes" test_open_loop_sheds_and_completes;
      t "profile run deterministic" test_profile_run_deterministic;
      t "tenant qos isolation" test_tenant_qos_isolation;
      t "profile run collects garbage under background"
        test_profile_run_gc_and_background;
      t "profile run takes the checker" test_profile_run_check;
      t "sim GC round fits its period" test_sim_gc_round_fits_its_period;
      t "scrubber detects at-rest faults" test_scrubber_detects_at_rest_faults;
      t "lazy floor defers a transient blip" test_lazy_floor_defers_transient_blip;
      t "repair planner avoids draining sources"
        test_repair_planner_avoids_draining_sources;
      t "drained node avoided by group planner"
        test_drained_node_avoided_by_group_planner;
      t "crashed client's locks expire in both groups"
        test_crashed_client_locks_expire_in_both_groups;
      t "auto remap covers every hosted group"
        test_auto_remap_covers_every_hosted_group;
      t "default placement is one identity group"
        test_default_placement_is_identity;
    ]
    @ coding `Gf8 "gf8: "
    @ coding `Gf16 "gf16: " )
