(* Tests for the extensions: lock-free slot health checks, degraded
   reads, and the scrubber. *)

open Sim_harness

let cfg_3_5 () = Config.make ~t_p:1 ~block_size:64 ~k:3 ~n:5 ()

(* Deterministically tear stripe [slot]: crash client [id] the moment its
   swap lands on the data node (position [i]), before it can issue any
   adds — the in-flight-reply check in the environment then kills the
   write between swap and adds. *)
let crash_writer_after_swap cluster ~slot ~i ~id =
  let layout = Shard_cluster.group_layout cluster 0 in
  let node = Layout.node_of layout ~stripe:slot ~pos:i in
  Shard_cluster.spawn cluster (fun () ->
      let rec poll () =
        let entry = member cluster node in
        if Storage_node.peek_recentlist entry.Directory.store ~slot = [] then begin
          Fiber.sleep 5e-6;
          poll ()
        end
        else Shard_cluster.crash_client cluster id
      in
      poll ())

let test_verify_healthy () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (cfg_3_5 ()) in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  let health =
    run_to_completion cluster (fun () ->
        Client.write client ~slot:0 ~i:0 (block_of cluster 'h');
        Client.verify_slot client ~slot:0)
  in
  Alcotest.(check bool) "healthy" true health.Client.sh_healthy;
  Alcotest.(check int) "all live" 5 health.Client.sh_live;
  Alcotest.(check int) "all consistent" 5 health.Client.sh_consistent

let test_verify_detects_init () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (cfg_3_5 ()) in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  let health =
    run_to_completion cluster (fun () ->
        Client.write client ~slot:0 ~i:0 (block_of cluster 'h');
        Shard_cluster.replace_node cluster 0;
        Client.verify_slot client ~slot:0)
  in
  Alcotest.(check bool) "not healthy" false health.Client.sh_healthy;
  Alcotest.(check int) "one INIT" 1 health.Client.sh_init

let test_verify_detects_torn_stripe () =
  (* Crash a writer between swap and adds; verify_slot must see the
     inconsistency without taking locks. *)
  let cluster = Shard_cluster.create ~remap_policy:`Auto (cfg_3_5 ()) in
  let w = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  crash_writer_after_swap cluster ~slot:0 ~i:0 ~id:0;
  Shard_cluster.spawn cluster (fun () ->
      try Client.write w ~slot:0 ~i:0 (block_of cluster 'T')
      with Shard_cluster.Client_crashed _ -> ());
  Shard_cluster.run cluster;
  let checkr = Shard_cluster.make_group_client cluster ~id:1 ~group:0 in
  let health =
    run_to_completion cluster (fun () -> Client.verify_slot checkr ~slot:0)
  in
  Alcotest.(check bool) "torn stripe flagged" false health.Client.sh_healthy;
  Alcotest.(check bool) "still recoverable" true
    (health.Client.sh_consistent >= 3)

let test_degraded_read_with_dead_data_node () =
  (* Manual remap policy: the data node stays dead, a normal read would
     stall, but the degraded read decodes from survivors. *)
  let cluster = Shard_cluster.create ~remap_policy:`Manual (cfg_3_5 ()) in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  let v =
    run_to_completion cluster (fun () ->
        Client.write client ~slot:0 ~i:0 (block_of cluster 'd');
        Client.write client ~slot:0 ~i:1 (block_of cluster 'e');
        (* Stripe 0 data position 0 lives on logical node 0. *)
        Shard_cluster.crash_node cluster 0;
        Client.read_degraded client ~slot:0 ~i:0)
  in
  (match v with
  | Some b -> Alcotest.(check bytes) "decoded" (block_of cluster 'd') b
  | None -> Alcotest.fail "degraded read failed");
  Alcotest.(check (float 0.01)) "no recovery ran" 0.
    (Stats.counter (Shard_cluster.stats cluster) "note.recovery.start")

let test_degraded_read_fast_path () =
  (* When the data node is fine, degraded read returns its block without
     decoding. *)
  let cluster = Shard_cluster.create ~remap_policy:`Auto (cfg_3_5 ()) in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  let v =
    run_to_completion cluster (fun () ->
        Client.write client ~slot:0 ~i:2 (block_of cluster 'f');
        Client.read_degraded client ~slot:0 ~i:2)
  in
  Alcotest.(check (option bytes)) "value" (Some (block_of cluster 'f')) v

let test_degraded_read_unwritten () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (cfg_3_5 ()) in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  let v =
    run_to_completion cluster (fun () -> Client.read_degraded client ~slot:9 ~i:0)
  in
  Alcotest.(check (option bytes)) "zeros" (Some (block_of cluster '\000')) v

let test_degraded_read_refuses_torn () =
  (* With a torn stripe (writer crashed mid-write), a degraded read of
     the affected block must return a *consistent* value (old or new
     rolled view), never garbage; here data node has the new value but
     redundants do not — the consistent set excludes the data node, and
     decode returns the old value. *)
  let cluster = Shard_cluster.create ~remap_policy:`Auto (cfg_3_5 ()) in
  let setup = Shard_cluster.make_group_client cluster ~id:9 ~group:0 in
  run_to_completion cluster (fun () ->
      Client.write setup ~slot:0 ~i:0 (block_of cluster 'O'));
  let w = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  crash_writer_after_swap cluster ~slot:0 ~i:0 ~id:0;
  Shard_cluster.spawn cluster (fun () ->
      try Client.write w ~slot:0 ~i:0 (block_of cluster 'N')
      with Shard_cluster.Client_crashed _ -> ());
  Shard_cluster.run cluster;
  let reader = Shard_cluster.make_group_client cluster ~id:1 ~group:0 in
  let v =
    run_to_completion cluster (fun () -> Client.read_degraded reader ~slot:0 ~i:0)
  in
  match v with
  | None -> () (* refusing is acceptable *)
  | Some b ->
    let c = Bytes.get b 0 in
    Alcotest.(check bool)
      (Printf.sprintf "consistent value, got %c" c)
      true
      (c = 'O' || c = 'N')

(* Scrub every stripe the single group has served. *)
let scrub_used cluster volume =
  Scrub.scrub (Volume.group_client volume 0)
    ~slots:(Shard_cluster.used_slots cluster ~group:0)

let test_scrub_healthy_cluster () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (cfg_3_5 ()) in
  let volume = Volume.create cluster ~id:0 in
  let report =
    run_to_completion cluster (fun () ->
        for l = 0 to 8 do
          Volume.write volume l (block_of cluster 's')
        done;
        scrub_used cluster volume)
  in
  Alcotest.(check int) "scanned" 3 report.Scrub.scanned;
  Alcotest.(check int) "all healthy" 3 report.Scrub.healthy;
  Alcotest.(check int) "nothing repaired" 0 report.Scrub.repaired;
  Alcotest.(check (float 0.01)) "no recovery" 0.
    (Stats.counter (Shard_cluster.stats cluster) "note.recovery.start")

let test_scrub_repairs_after_crash () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (cfg_3_5 ()) in
  let volume = Volume.create cluster ~id:0 in
  let report =
    run_to_completion cluster (fun () ->
        for l = 0 to 8 do
          Volume.write volume l (block_of cluster 'r')
        done;
        Shard_cluster.replace_node cluster 1;
        (* Touch the replacement so its INIT slots materialize. *)
        scrub_used cluster volume)
  in
  Alcotest.(check int) "scanned" 3 report.Scrub.scanned;
  Alcotest.(check int) "unrepaired" 0 report.Scrub.unrepaired;
  Alcotest.(check bool) "repaired >= 1" true (report.Scrub.repaired >= 1);
  (* Everything still reads correctly. *)
  run_to_completion cluster (fun () ->
      for l = 0 to 8 do
        Alcotest.(check bytes)
          (Printf.sprintf "block %d" l)
          (block_of cluster 'r') (Volume.read volume l)
      done)

let test_scrub_repairs_torn_write () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (cfg_3_5 ()) in
  let volume = Volume.create cluster ~id:9 in
  run_to_completion cluster (fun () ->
      for l = 0 to 2 do
        Volume.write volume l (block_of cluster 'w')
      done);
  let w = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  crash_writer_after_swap cluster ~slot:0 ~i:1 ~id:0;
  Shard_cluster.spawn cluster (fun () ->
      try Client.write w ~slot:0 ~i:1 (block_of cluster 'X')
      with Shard_cluster.Client_crashed _ -> ());
  Shard_cluster.run cluster;
  let report =
    run_to_completion cluster (fun () -> scrub_used cluster volume)
  in
  Alcotest.(check int) "unrepaired" 0 report.Scrub.unrepaired;
  (* The stripe is whole again: white-box verify. *)
  let layout = Shard_cluster.group_layout cluster 0 in
  let blocks =
    Array.init 5 (fun pos ->
        let node = Layout.node_of layout ~stripe:0 ~pos in
        Storage_node.peek_block
          (member cluster node).Directory.store ~slot:0)
  in
  Alcotest.(check bool) "stripe consistent" true
    (Rs_code.verify_stripe (Shard_cluster.code cluster) blocks)

let test_scrub_repairs_bit_rot () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (cfg_3_5 ()) in
  let volume = Volume.create cluster ~id:0 in
  let report =
    run_to_completion cluster (fun () ->
        for l = 0 to 8 do
          Volume.write volume l (block_of cluster 'b')
        done;
        (* Silent bit rot on a redundant member of stripe 1: no client
           read ever touches it, so only the scrubber can see it. *)
        let node =
          Layout.node_of (Shard_cluster.group_layout cluster 0) ~stripe:1 ~pos:4
        in
        Alcotest.(check bool) "injected" true
          (Shard_cluster.corrupt_member cluster ~group:0 ~index:node ~slot:1);
        scrub_used cluster volume)
  in
  Alcotest.(check int) "unrepaired" 0 report.Scrub.unrepaired;
  Alcotest.(check bool) "corruption detected" true
    (report.Scrub.corrupt_detected >= 1);
  Alcotest.(check int) "repaired" 1 report.Scrub.repaired;
  run_to_completion cluster (fun () ->
      for l = 0 to 8 do
        Alcotest.(check bytes)
          (Printf.sprintf "block %d" l)
          (block_of cluster 'b') (Volume.read volume l)
      done)

let test_scrub_repairs_rollback () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (cfg_3_5 ()) in
  let volume = Volume.create cluster ~id:0 in
  let report =
    run_to_completion cluster (fun () ->
        for l = 0 to 2 do
          Volume.write volume l (block_of cluster 'o')
        done;
        (* Same-record rollback on a redundant member: snapshot, change
           the stripe, restore block + sealed record together.  The
           node's self-check passes; only the scrubber's cross-member
           decode check can identify the stale state. *)
        let node =
          Layout.node_of (Shard_cluster.group_layout cluster 0) ~stripe:0 ~pos:3
        in
        let snap =
          match
            Shard_cluster.snapshot_member cluster ~group:0 ~index:node ~slot:0
          with
          | Some s -> s
          | None -> Alcotest.fail "no snapshot"
        in
        for l = 0 to 2 do
          Volume.write volume l (block_of cluster 'n')
        done;
        Alcotest.(check bool) "rolled back" true
          (Shard_cluster.rollback_member cluster ~group:0 ~index:node ~slot:0
            snap);
        scrub_used cluster volume)
  in
  Alcotest.(check int) "unrepaired" 0 report.Scrub.unrepaired;
  Alcotest.(check bool) "stale member detected" true
    (report.Scrub.stale_detected >= 1);
  run_to_completion cluster (fun () ->
      for l = 0 to 2 do
        Alcotest.(check bytes)
          (Printf.sprintf "block %d" l)
          (block_of cluster 'n') (Volume.read volume l)
      done)

let test_scrub_report_pp () =
  let r =
    {
      Scrub.scanned = 4;
      healthy = 2;
      repaired = 1;
      unrepaired = 1;
      corrupt_detected = 2;
      stale_detected = 1;
      integrity_repaired = 3;
    }
  in
  Alcotest.(check string) "pp"
    "scanned 4 stripe(s): 2 healthy, 1 repaired, 1 unrepaired; integrity: 2 \
     corrupt, 1 stale, 3 repaired"
    (Format.asprintf "%a" Scrub.pp_report r)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "scrub",
    [
      t "verify_slot healthy" test_verify_healthy;
      t "verify_slot detects INIT" test_verify_detects_init;
      t "verify_slot detects torn stripe" test_verify_detects_torn_stripe;
      t "degraded read, dead data node" test_degraded_read_with_dead_data_node;
      t "degraded read fast path" test_degraded_read_fast_path;
      t "degraded read of unwritten stripe" test_degraded_read_unwritten;
      t "degraded read never returns garbage" test_degraded_read_refuses_torn;
      t "scrub healthy cluster is a no-op" test_scrub_healthy_cluster;
      t "scrub repairs after storage crash" test_scrub_repairs_after_crash;
      t "scrub repairs a torn write" test_scrub_repairs_torn_write;
      t "scrub repairs silent bit rot" test_scrub_repairs_bit_rot;
      t "scrub repairs a same-record rollback" test_scrub_repairs_rollback;
      t "report printer" test_scrub_report_pp;
    ] )
