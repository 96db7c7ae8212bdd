(* Tests for the failure-domain topology and the CRUSH-style straw
   placement: domain arithmetic of the declarative spec, and the three
   selector properties the volume stack leans on — distinct failure
   domains at the placement level, weight-proportional load, and
   minimal movement under elastic membership changes — each checked
   across >= 20 seeds.  The reverse index (groups_on/members_on) is
   cross-checked against a brute-force scan, and three torture legs run
   the full stack with the background scheduler through a rack outage,
   a concurrent join + drain, and a crash during a drain, with the
   regular-register checker on. *)

open Ecs_volume

(* CI chaos matrix: ECS_SEED_OFFSET shifts every hardcoded seed so each
   matrix job explores a different deterministic slice while any
   failure still replays exactly from its shifted seed. *)
let seed_offset =
  match Sys.getenv_opt "ECS_SEED_OFFSET" with
  | Some s -> ( try int_of_string s with _ -> 0)
  | None -> 0

let seeds = List.init 25 (fun i -> 0x5eed + (i * 131) + seed_offset)

(* ------------------------------------------------------------------ *)
(* Topology structure. *)

let test_spec_arithmetic () =
  let spec =
    Topology.spec ~zones:3 ~racks_per_zone:2 ~hosts_per_rack:4
      ~disks_per_host:2 ()
  in
  let topo = Topology.make spec in
  Alcotest.(check int) "size" 48 (Topology.size topo);
  Alcotest.(check int) "zones" 3 (Topology.domains topo Topology.Zone);
  Alcotest.(check int) "racks" 6 (Topology.domains topo Topology.Rack);
  Alcotest.(check int) "hosts" 24 (Topology.domains topo Topology.Host);
  Alcotest.(check int) "disks" 48 (Topology.domains topo Topology.Disk);
  Alcotest.(check (float 1e-9)) "total weight" 48. (Topology.total_weight topo);
  (* Containment: same host => same rack => same zone; disk domain is
     the node id itself. *)
  for a = 0 to 47 do
    Alcotest.(check int) "disk domain = id" a
      (Topology.domain topo ~node:a ~level:Topology.Disk);
    for b = 0 to 47 do
      let same l =
        Topology.domain topo ~node:a ~level:l
        = Topology.domain topo ~node:b ~level:l
      in
      if same Topology.Host then
        Alcotest.(check bool) "host in rack" true (same Topology.Rack);
      if same Topology.Rack then
        Alcotest.(check bool) "rack in zone" true (same Topology.Zone)
    done
  done;
  Alcotest.(check bool) "pp renders" true
    (String.length (Topology.to_string topo) > 0)

let test_topology_elastic () =
  let topo = Topology.flat 6 in
  Alcotest.(check int) "flat size" 6 (Topology.size topo);
  (* A flat pool isolates every disk: distinct hosts = distinct disks. *)
  Alcotest.(check int) "flat hosts" 6 (Topology.domains topo Topology.Host);
  let id = Topology.add_node topo ~host:99 ~rack:99 ~zone:99 in
  Alcotest.(check int) "dense ids" 6 id;
  Alcotest.(check int) "grown" 7 (Topology.size topo);
  Topology.set_weight topo id 0.;
  Alcotest.(check (float 1e-9)) "drained weight" 0. (Topology.weight topo id);
  Alcotest.(check (float 1e-9)) "total skips drained" 6.
    (Topology.total_weight topo);
  Alcotest.check_raises "negative weight rejected"
    (Invalid_argument "Topology.set_weight: negative weight") (fun () ->
      Topology.set_weight topo 0 (-1.))

(* ------------------------------------------------------------------ *)
(* Property: distinct failure domains at the placement level. *)

let test_distinct_domains () =
  List.iter
    (fun seed ->
      let topo =
        Topology.make
          (Topology.spec ~zones:3 ~racks_per_zone:2 ~hosts_per_rack:2
             ~disks_per_host:2 ())
      in
      List.iter
        (fun level ->
          let p =
            Placement.make_topo ~seed ~level ~groups:16 ~nodes_per_group:5
              ~topology:topo ()
          in
          for g = 0 to 15 do
            let doms =
              Array.to_list (Placement.group_nodes p g)
              |> List.map (fun q -> Topology.domain topo ~node:q ~level)
              |> List.sort_uniq compare
            in
            Alcotest.(check int)
              (Printf.sprintf "seed %#x level %s group %d distinct" seed
                 (Topology.level_to_string level)
                 g)
              5 (List.length doms)
          done)
        [ Topology.Disk; Topology.Host; Topology.Rack ])
    seeds;
  (* Too few domains at the level is rejected up front: 5 members over
     3 zones cannot be zone-distinct. *)
  let topo =
    Topology.make
      (Topology.spec ~zones:3 ~racks_per_zone:2 ~hosts_per_rack:2
         ~disks_per_host:2 ())
  in
  Alcotest.(check bool) "too few zones rejected" true
    (try
       ignore
         (Placement.make_topo ~level:Topology.Zone ~groups:4
            ~nodes_per_group:5 ~topology:topo ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Property: weight-proportional load. *)

let test_weight_proportional () =
  (* One node at weight 3 among 59 at weight 1: its expected member
     share is ~3x a light node's.  Proportionality needs n << pool (a
     node joins a group at most once, so selecting 5 of 12 would
     saturate the heavy node); with 5 of 60 the inclusion probability
     stays nearly linear in weight.  Straw selection is statistical,
     so the expected ratio sits just under 3 (~2.75 at 5
     of 60) and per-seed hash noise is wide: check each seed within a
     generous band and the cross-seed mean tighter. *)
  let ratios =
    List.map
      (fun seed ->
        let topo = Topology.flat 60 in
        Topology.set_weight topo 0 3.;
        let p =
          Placement.make_topo ~seed ~level:Topology.Disk ~groups:600
            ~nodes_per_group:5 ~topology:topo ()
        in
        let loads = Placement.loads p in
        let light =
          Array.sub loads 1 59 |> Array.fold_left ( + ) 0 |> fun s ->
          float_of_int s /. 59.
        in
        let ratio = float_of_int loads.(0) /. light in
        Alcotest.(check bool)
          (Printf.sprintf "seed %#x ratio %.2f in [2.0, 3.6]" seed ratio)
          true
          (ratio > 2.0 && ratio < 3.6);
        ratio)
      seeds
  in
  let mean = List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios) in
  Alcotest.(check bool)
    (Printf.sprintf "mean ratio %.2f in [2.4, 3.1]" mean)
    true
    (mean > 2.4 && mean < 3.1)

(* ------------------------------------------------------------------ *)
(* Property: minimal movement under join and drain. *)

let test_minimal_movement_join () =
  List.iter
    (fun seed ->
      let topo =
        Topology.make
          (Topology.spec ~zones:2 ~racks_per_zone:2 ~hosts_per_rack:3
             ~disks_per_host:2 ())
      in
      let p =
        Placement.make_topo ~seed ~level:Topology.Host ~groups:32
          ~nodes_per_group:5 ~topology:topo ()
      in
      Alcotest.(check bool) "stable layout has no plan" true
        (Placement.plan p = []);
      let fresh = Topology.add_node topo ~host:24 ~rack:0 ~zone:0 in
      let moves = Placement.plan p in
      (* Every move is into the new node, at most one per group, and
         applying the plan converges. *)
      let per_group = Hashtbl.create 16 in
      List.iter
        (fun (mv : Placement.move) ->
          Alcotest.(check int)
            (Printf.sprintf "seed %#x move targets the join" seed)
            fresh mv.Placement.mv_dst;
          Alcotest.(check bool) "one move per group" false
            (Hashtbl.mem per_group mv.mv_group);
          Hashtbl.replace per_group mv.mv_group ())
        moves;
      List.iter
        (fun (mv : Placement.move) ->
          Placement.reassign p ~group:mv.Placement.mv_group
            ~index:mv.mv_index ~node:mv.mv_dst)
        moves;
      Alcotest.(check bool)
        (Printf.sprintf "seed %#x converged after apply" seed)
        true
        (Placement.plan p = []))
    seeds

let test_minimal_movement_drain () =
  List.iter
    (fun seed ->
      let topo = Topology.flat 16 in
      let p =
        Placement.make_topo ~seed ~level:Topology.Disk ~groups:32
          ~nodes_per_group:5 ~topology:topo ()
      in
      let victim = (Placement.group_nodes p 0).(2) in
      let hosted = Placement.groups_on p victim in
      Topology.set_weight topo victim 0.;
      let moves = Placement.plan p in
      (* Exactly the victim's members move, nothing else is touched. *)
      Alcotest.(check int)
        (Printf.sprintf "seed %#x one move per hosted group" seed)
        (List.length hosted) (List.length moves);
      List.iter
        (fun (mv : Placement.move) ->
          Alcotest.(check int) "source is the drained node" victim
            mv.Placement.mv_src;
          Alcotest.(check bool) "group hosted the victim" true
            (List.mem mv.mv_group hosted))
        moves)
    seeds

(* ------------------------------------------------------------------ *)
(* Reverse index vs brute-force scan. *)

let test_reverse_index () =
  let p = Placement.make ~seed:(0xfeed + seed_offset) ~groups:24
      ~nodes_per_group:5 ~pool:18 ()
  in
  let scan node =
    List.filter
      (fun g -> Array.exists (fun q -> q = node) (Placement.group_nodes p g))
      (List.init 24 Fun.id)
  in
  let check_all tag =
    for node = 0 to 17 do
      Alcotest.(check (list int))
        (Printf.sprintf "%s: groups_on node %d" tag node)
        (scan node) (Placement.groups_on p node);
      List.iter
        (fun (g, i) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: members_on inverse (%d,%d)" tag g i)
            node
            (Placement.member p ~group:g ~index:i))
        (Placement.members_on p node)
    done
  in
  check_all "initial";
  (* Reassignments keep the index in sync. *)
  for g = 0 to 7 do
    let current = Placement.group_nodes p g in
    let free =
      List.find
        (fun q -> not (Array.exists (fun m -> m = q) current))
        (List.init 18 Fun.id)
    in
    Placement.reassign p ~group:g ~index:(g mod 5) ~node:free
  done;
  check_all "after reassign";
  (* Loads agree with the index. *)
  Array.iteri
    (fun node load ->
      Alcotest.(check int)
        (Printf.sprintf "load of node %d" node)
        load
        (List.length (Placement.members_on p node)))
    (Placement.loads p)

let test_violates () =
  let topo =
    Topology.make
      (Topology.spec ~zones:1 ~racks_per_zone:2 ~hosts_per_rack:4
         ~disks_per_host:2 ())
  in
  let p =
    Placement.make_topo ~seed:7 ~level:Topology.Host ~groups:1
      ~nodes_per_group:5 ~topology:topo ()
  in
  let members = Placement.group_nodes p 0 in
  (* A sibling disk of member 1's host collides at Host level when
     proposed for a different index... *)
  let host_of q = Topology.domain topo ~node:q ~level:Topology.Host in
  let sibling =
    List.find
      (fun q -> q <> members.(1) && host_of q = host_of members.(1))
      (List.init 16 Fun.id)
  in
  Alcotest.(check bool) "same-host sibling violates" true
    (Placement.violates p ~group:0 ~index:0 ~node:sibling);
  (* ... but replacing member 1 itself with its sibling does not (the
     vacated slot frees the domain). *)
  Alcotest.(check bool) "replacing the co-host member is fine" false
    (Placement.violates p ~group:0 ~index:1 ~node:sibling);
  let free_host =
    List.find
      (fun q -> Array.for_all (fun m -> host_of m <> host_of q) members)
      (List.init 16 Fun.id)
  in
  Alcotest.(check bool) "fresh host does not violate" false
    (Placement.violates p ~group:0 ~index:0 ~node:free_host)

(* ------------------------------------------------------------------ *)
(* Torture: full stack through a rack outage, checker on. *)

let cfg () = Config.make ~t_p:1 ~block_size:512 ~k:3 ~n:5 ()

let test_rack_outage_consistent () =
  let seed = 0x0ace + seed_offset in
  let topo =
    Topology.make
      (Topology.spec ~zones:3 ~racks_per_zone:2 ~hosts_per_rack:2
         ~disks_per_host:2 ())
  in
  let placement =
    Placement.make_topo ~seed ~level:Topology.Rack ~groups:4
      ~nodes_per_group:5 ~topology:topo ()
  in
  let sc = Shard_cluster.create ~seed:(seed lxor 0x55) ~placement (cfg ()) in
  (* Take out every disk of the rack hosting member 0 of group 0:
     rack-level placement caps the damage at one member per group, well
     inside n - k = 2. *)
  let rack =
    Topology.domain topo ~node:(Placement.group_nodes placement 0).(0)
      ~level:Topology.Rack
  in
  let in_rack =
    List.filter
      (fun q -> Topology.domain topo ~node:q ~level:Topology.Rack = rack)
      (List.init (Topology.size topo) Fun.id)
  in
  let events =
    [
      ( 0.08,
        fun sc ->
          List.iter
            (fun node ->
              Shard_cluster.schedule_outage sc ~at:(Shard_cluster.now sc)
                ~node ~down_for:0.08)
            in_rack );
    ]
  in
  let ck = Checker.create () in
  let r =
    Vrunner.run_profile ~events ~background:(3000., [ Monitor; Supervise ])
      ~check:ck ~blocks:48 ~sc
      ~tenants:
        (Vrunner.clients 4 (Profile.closed ~outstanding:4 ~write_frac:0.5 ()))
      ~duration:0.3 ()
  in
  let bg = r.Vrunner.background in
  Alcotest.(check bool) "made progress" true
    (r.Vrunner.run.Report.read_ops + r.Vrunner.run.Report.write_ops > 200);
  (* Each affected group loses at most its one in-rack member. *)
  Alcotest.(check bool)
    (Printf.sprintf "failovers (%d) bounded by groups" bg.supervisor_failovers)
    true
    (bg.supervisor_failovers <= 4);
  Alcotest.(check bool) "history consistent" true
    (match Checker.check ck with Ok _ -> true | Error _ -> false)

(* Torture: concurrent join + drain migrated live. *)

let test_join_drain_consistent () =
  let seed = 0x0e1a + seed_offset in
  let topo =
    Topology.make
      (Topology.spec ~zones:2 ~racks_per_zone:2 ~hosts_per_rack:3
         ~disks_per_host:2 ())
  in
  let placement =
    Placement.make_topo ~seed ~level:Topology.Host ~groups:4
      ~nodes_per_group:5 ~topology:topo ()
  in
  let sc = Shard_cluster.create ~seed:(seed lxor 0xaa) ~placement (cfg ()) in
  let drain_victim = (Placement.group_nodes placement 1).(0) in
  let events =
    [
      ( 0.05,
        fun sc ->
          ignore (Shard_cluster.add_node sc ~host:12 ~rack:0 ~zone:0);
          ignore (Shard_cluster.add_node sc ~host:12 ~rack:0 ~zone:0) );
      (0.06, fun sc -> ignore (Shard_cluster.drain_node sc drain_victim));
    ]
  in
  let ck = Checker.create () in
  let r =
    Vrunner.run_profile ~events
      ~background:(6000., [ Monitor; Supervise; Rebalance ]) ~check:ck
      ~blocks:48 ~sc
      ~tenants:
        (Vrunner.clients 4 (Profile.closed ~outstanding:4 ~write_frac:0.5 ()))
      ~duration:0.5 ()
  in
  let bg = r.Vrunner.background in
  Alcotest.(check bool)
    (Printf.sprintf "members migrated (%d)" bg.rebalance_moves)
    true (bg.rebalance_moves >= 1);
  Alcotest.(check int) "no rebalance errors" 0 bg.rebalance_errors;
  (* The drained node must be fully evacuated by run end (live
     migration, not failover: the victim kept serving throughout). *)
  Alcotest.(check (list int)) "drained node evacuated" []
    (Placement.groups_on (Shard_cluster.placement sc) drain_victim);
  Alcotest.(check bool) "history consistent" true
    (match Checker.check ck with Ok _ -> true | Error _ -> false)

(* Torture: a node crashes while the group it serves is being drained.
   Failover and migration rewrite the same group's placement and
   directory; one scheduler interleaves them stripe by stripe. *)

let test_crash_during_drain () =
  let seed = 0x0dc5 + seed_offset in
  let topo =
    Topology.make
      (Topology.spec ~zones:2 ~racks_per_zone:2 ~hosts_per_rack:3
         ~disks_per_host:2 ())
  in
  let placement =
    Placement.make_topo ~seed ~level:Topology.Host ~groups:4
      ~nodes_per_group:5 ~topology:topo ()
  in
  let sc = Shard_cluster.create ~seed:(seed lxor 0x5a) ~placement (cfg ()) in
  let drained = (Placement.group_nodes placement 1).(0) in
  let crashed = ref (-1) in
  (* Crash another member of the first group the drain moves, 2 ms
     into its migration. *)
  let drain sc =
    match Shard_cluster.drain_node sc drained with
    | [] -> Alcotest.fail "drain planned no move"
    | mv :: _ ->
      let members = Placement.group_nodes placement mv.Placement.mv_group in
      crashed := List.find (fun p -> p <> drained) (Array.to_list members);
      Engine.schedule (Shard_cluster.engine sc)
        ~at:(Shard_cluster.now sc +. 0.002)
        (fun () -> Shard_cluster.crash_node sc !crashed)
  in
  let ck = Checker.create () in
  let r =
    Vrunner.run_profile ~events:[ (0.05, drain) ]
      ~background:(6000., [ Monitor; Supervise; Rebalance ]) ~check:ck
      ~blocks:48 ~sc
      ~tenants:
        (Vrunner.clients 4 (Profile.closed ~outstanding:4 ~write_frac:0.5 ()))
      ~duration:0.5 ()
  in
  let bg = r.Vrunner.background in
  Alcotest.(check (list int)) "drained node evacuated" []
    (Placement.groups_on (Shard_cluster.placement sc) drained);
  Alcotest.(check (list int)) "crashed node failed over" []
    (Placement.groups_on (Shard_cluster.placement sc) !crashed);
  Alcotest.(check bool) "crashed node's groups repaired" true
    (List.mem_assoc !crashed bg.repaired_at);
  Alcotest.(check int) "no rebalance errors" 0 bg.rebalance_errors;
  Alcotest.(check bool) "history consistent" true
    (match Checker.check ck with Ok _ -> true | Error _ -> false)

(* ------------------------------------------------------------------ *)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "topology",
    [
      t "spec arithmetic and domain containment" test_spec_arithmetic;
      t "elastic node set" test_topology_elastic;
      t "distinct domains at every level (25 seeds)" test_distinct_domains;
      t "weight-proportional load (25 seeds)" test_weight_proportional;
      t "minimal movement on join (25 seeds)" test_minimal_movement_join;
      t "minimal movement on drain (25 seeds)" test_minimal_movement_drain;
      t "reverse index matches brute-force scan" test_reverse_index;
      t "distinct-domain violation oracle" test_violates;
      t "rack outage: bounded failovers, checker clean"
        test_rack_outage_consistent;
      t "concurrent join+drain: live migration, checker clean"
        test_join_drain_consistent;
      t "crash during a drain of the same group" test_crash_during_drain;
    ] )
