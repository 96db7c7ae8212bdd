(* End-to-end tests of the AJX client protocol over the simulated
   cluster: failure-free paths, concurrency, and the stripe-consistency
   invariant checked directly against storage-node contents. *)

open Sim_harness

let default_cfg ?strategy ?(k = 2) ?(n = 4) () =
  Config.make ?strategy ~t_p:1 ~block_size:64 ~k ~n ()

let test_write_read_roundtrip () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (default_cfg ()) in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  run_to_completion cluster (fun () ->
      Client.write client ~slot:0 ~i:0 (block_of cluster 'x');
      Client.write client ~slot:0 ~i:1 (block_of cluster 'y');
      Alcotest.(check bytes) "read back 0" (block_of cluster 'x')
        (Client.read client ~slot:0 ~i:0);
      Alcotest.(check bytes) "read back 1" (block_of cluster 'y')
        (Client.read client ~slot:0 ~i:1));
  Alcotest.(check bool) "stripe consistent" true (stripe_consistent cluster ~slot:0)

let test_read_unwritten_is_zero () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (default_cfg ()) in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  run_to_completion cluster (fun () ->
      Alcotest.(check bytes) "zeros" (block_of cluster '\000')
        (Client.read client ~slot:42 ~i:1))

let test_overwrite () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (default_cfg ()) in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  run_to_completion cluster (fun () ->
      for round = 0 to 9 do
        let c = Char.chr (97 + round) in
        Client.write client ~slot:0 ~i:0 (block_of cluster c);
        Alcotest.(check bytes) "latest wins" (block_of cluster c)
          (Client.read client ~slot:0 ~i:0)
      done);
  Alcotest.(check bool) "stripe consistent" true (stripe_consistent cluster ~slot:0)

let strategies =
  [
    ("serial", Config.Serial);
    ("parallel", Config.Parallel);
    ("hybrid2", Config.Hybrid 2);
    ("bcast", Config.Bcast);
  ]

let test_all_strategies () =
  List.iter
    (fun (name, strategy) ->
      let cfg = Config.make ~strategy ~t_p:0 ~block_size:64 ~k:3 ~n:6 () in
      let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
      let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
      run_to_completion cluster (fun () ->
          for i = 0 to 2 do
            Client.write client ~slot:0 ~i (block_of cluster (Char.chr (65 + i)))
          done;
          for i = 0 to 2 do
            Alcotest.(check bytes)
              (Printf.sprintf "%s block %d" name i)
              (block_of cluster (Char.chr (65 + i)))
              (Client.read client ~slot:0 ~i)
          done);
      Alcotest.(check bool)
        (Printf.sprintf "%s stripe consistent" name)
        true
        (stripe_consistent cluster ~slot:0))
    strategies

let test_concurrent_writers_different_blocks () =
  (* Fig 3(C): two clients concurrently update coupled blocks with no
     coordination; the stripe must end consistent. *)
  let cluster = Shard_cluster.create ~remap_policy:`Auto (default_cfg ()) in
  let c1 = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  let c2 = Shard_cluster.make_group_client cluster ~id:1 ~group:0 in
  Shard_cluster.spawn cluster (fun () ->
      Client.write c1 ~slot:0 ~i:0 (block_of cluster 'c'));
  Shard_cluster.spawn cluster (fun () ->
      Client.write c2 ~slot:0 ~i:1 (block_of cluster 'd'));
  Shard_cluster.run cluster;
  Alcotest.(check bool) "stripe consistent" true (stripe_consistent cluster ~slot:0);
  let reader = Shard_cluster.make_group_client cluster ~id:2 ~group:0 in
  run_to_completion cluster (fun () ->
      Alcotest.(check bytes) "c" (block_of cluster 'c') (Client.read reader ~slot:0 ~i:0);
      Alcotest.(check bytes) "d" (block_of cluster 'd') (Client.read reader ~slot:0 ~i:1))

let test_concurrent_writers_same_block () =
  (* Writes to the same block must serialize via the otid ordering; the
     final stripe is consistent and holds one of the written values. *)
  let cluster = Shard_cluster.create ~remap_policy:`Auto (default_cfg ()) in
  let clients =
    List.init 4 (fun id -> Shard_cluster.make_group_client cluster ~id ~group:0)
  in
  List.iteri
    (fun idx client ->
      Shard_cluster.spawn cluster (fun () ->
          Client.write client ~slot:0 ~i:0
            (block_of cluster (Char.chr (97 + idx)))))
    clients;
  Shard_cluster.run cluster;
  Alcotest.(check bool) "stripe consistent" true (stripe_consistent cluster ~slot:0);
  let reader = Shard_cluster.make_group_client cluster ~id:9 ~group:0 in
  let v = run_to_completion cluster (fun () -> Client.read reader ~slot:0 ~i:0) in
  let c = Bytes.get v 0 in
  Alcotest.(check bool)
    (Printf.sprintf "one of the written values, got %c" c)
    true
    (c >= 'a' && c <= 'd')

let test_many_concurrent_writers_many_blocks () =
  let cfg = Config.make ~strategy:Config.Parallel ~t_p:1 ~block_size:64 ~k:4 ~n:6 () in
  let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
  for id = 0 to 7 do
    let client = Shard_cluster.make_group_client cluster ~id ~group:0 in
    Shard_cluster.spawn cluster (fun () ->
        let rng = Random.State.make [| id |] in
        for _ = 1 to 25 do
          let slot = Random.State.int rng 4 and i = Random.State.int rng 4 in
          Client.write client ~slot ~i
            (block_of cluster (Char.chr (65 + Random.State.int rng 26)))
        done)
  done;
  Shard_cluster.run cluster;
  for slot = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "stripe %d consistent" slot)
      true
      (stripe_consistent cluster ~slot)
  done

let test_write_message_count () =
  (* Fig 1, AJX-par: a failure-free write costs 2(p+1) messages; a read
     costs 2. *)
  let cfg = Config.make ~strategy:Config.Parallel ~t_p:1 ~block_size:64 ~k:3 ~n:5 () in
  let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  let stats = Shard_cluster.stats cluster in
  run_to_completion cluster (fun () ->
      Client.write client ~slot:0 ~i:0 (block_of cluster 'w'));
  let p = float_of_int (Config.p cfg) in
  Alcotest.(check (float 0.01)) "write msgs = 2(p+1)"
    (2. *. (p +. 1.))
    (Stats.counter stats "msgs");
  let before = Stats.counter stats "msgs" in
  run_to_completion cluster (fun () -> ignore (Client.read client ~slot:0 ~i:0));
  Alcotest.(check (float 0.01)) "read msgs = 2" 2.
    (Stats.counter stats "msgs" -. before)

let test_bcast_message_count () =
  (* Fig 1, AJX-bcast: p + 3 messages per write. *)
  let cfg = Config.make ~strategy:Config.Bcast ~t_p:1 ~block_size:64 ~k:3 ~n:5 () in
  let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  let stats = Shard_cluster.stats cluster in
  run_to_completion cluster (fun () ->
      Client.write client ~slot:0 ~i:0 (block_of cluster 'w'));
  let p = float_of_int (Config.p cfg) in
  Alcotest.(check (float 0.01)) "write msgs = p+3" (p +. 3.)
    (Stats.counter stats "msgs")

let test_rotation_spreads_load () =
  (* With rotation, sequential writes touch all n nodes as data nodes;
     without, data lands only on the first k. *)
  let count_data_bytes rotate =
    let cfg = Config.make ~strategy:Config.Parallel ~block_size:64 ~k:2 ~n:4 () in
    let cluster = Shard_cluster.create ~remap_policy:`Auto ~rotate cfg in
    let volume = Volume.create cluster ~id:0 in
    run_to_completion cluster (fun () ->
        for l = 0 to 15 do
          Volume.write volume l (block_of cluster 'q')
        done);
    List.init 4 (fun node ->
        let e = member cluster node in
        Storage_node.slot_count e.Directory.store)
  in
  let rotated = count_data_bytes true in
  Alcotest.(check bool) "all nodes host slots (rotate)" true
    (List.for_all (fun c -> c > 0) rotated)

let test_volume_api () =
  let cfg = default_cfg () in
  let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
  let volume = Volume.create cluster ~id:0 in
  run_to_completion cluster (fun () ->
      let mk i = Bytes.make 64 (Char.chr (48 + i)) in
      Volume.write_batch volume (List.init 10 (fun l -> (l, mk l)));
      let vals = Volume.read_batch volume (List.init 10 Fun.id) in
      List.iteri
        (fun l v -> Alcotest.(check bytes) (Printf.sprintf "block %d" l) (mk l) v)
        vals;
      Alcotest.(check int) "used slots" 5
        (List.length (Shard_cluster.used_slots cluster ~group:0)))

let test_volume_validation () =
  let cfg = default_cfg () in
  let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
  let volume = Volume.create cluster ~id:0 in
  run_to_completion cluster (fun () ->
      Alcotest.check_raises "bad size"
        (Invalid_argument "Volume.write: value must be exactly one block")
        (fun () -> Volume.write volume 0 (Bytes.create 7)))

let test_volume_range_io () =
  let cfg = default_cfg () in
  let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
  let volume = Volume.create cluster ~id:0 in
  run_to_completion cluster (fun () ->
      let data =
        Bytes.init (6 * 64) (fun i -> Char.chr (33 + (i / 64) + (i mod 7)))
      in
      Volume.write_range volume ~from_block:3 data;
      let got = Volume.read_range volume ~from_block:3 ~count:6 in
      Alcotest.(check bytes) "range roundtrip" data got;
      (* Partial overlap with unwritten space reads zeros. *)
      let tail = Volume.read_range volume ~from_block:8 ~count:2 in
      Alcotest.(check bytes) "written then zeros"
        (Bytes.cat (Bytes.sub data (5 * 64) 64) (Bytes.make 64 '\000'))
        tail;
      Alcotest.check_raises "bad length"
        (Invalid_argument
           "Volume.write_range: data must be a multiple of block size")
        (fun () -> Volume.write_range volume ~from_block:0 (Bytes.create 65)));
  Alcotest.(check bool) "stripes consistent" true
    (List.for_all
       (fun slot -> stripe_consistent cluster ~slot)
       (Shard_cluster.used_slots cluster ~group:0))

let test_gc_clears_recentlists () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (default_cfg ()) in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  run_to_completion cluster (fun () ->
      for i = 0 to 1 do
        Client.write client ~slot:0 ~i (block_of cluster 'g')
      done;
      Alcotest.(check int) "2 pending" 2 (Client.pending_gc client);
      (* Phase 2 then phase 1. *)
      Client.collect_garbage client;
      Client.collect_garbage client;
      Alcotest.(check int) "drained" 0 (Client.pending_gc client));
  (* recentlists empty at every node of the stripe. *)
  let layout = Shard_cluster.group_layout cluster 0 in
  for pos = 0 to 3 do
    let node = Layout.node_of layout ~stripe:0 ~pos in
    let e = member cluster node in
    Alcotest.(check int)
      (Printf.sprintf "pos %d recent empty" pos)
      0
      (List.length (Storage_node.peek_recentlist e.Directory.store ~slot:0));
    Alcotest.(check int)
      (Printf.sprintf "pos %d old empty" pos)
      0
      (List.length (Storage_node.peek_oldlist e.Directory.store ~slot:0))
  done

let test_write_ordering_same_block_preserves_code () =
  (* Interleaved same-block writers with the ORDER mechanism: state must
     remain decodable to the last completed write's value. *)
  let cfg = Config.make ~strategy:Config.Serial ~t_p:1 ~block_size:64 ~k:2 ~n:4 () in
  let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
  let w1 = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  let w2 = Shard_cluster.make_group_client cluster ~id:1 ~group:0 in
  Shard_cluster.spawn cluster (fun () ->
      for r = 0 to 9 do
        Client.write w1 ~slot:0 ~i:0 (block_of cluster (Char.chr (97 + r)))
      done);
  Shard_cluster.spawn cluster (fun () ->
      for r = 0 to 9 do
        Client.write w2 ~slot:0 ~i:0 (block_of cluster (Char.chr (65 + r)))
      done);
  Shard_cluster.run cluster;
  Alcotest.(check bool) "consistent" true (stripe_consistent cluster ~slot:0);
  (* Decoding from redundant blocks alone gives the same data value. *)
  let layout = Shard_cluster.group_layout cluster 0 in
  let stripe_block pos =
    let node = Layout.node_of layout ~stripe:0 ~pos in
    Storage_node.peek_block
      (member cluster node).Directory.store ~slot:0
  in
  let from_redundant =
    Rs_code.decode (Shard_cluster.code cluster)
      [ (2, stripe_block 2); (3, stripe_block 3) ]
  in
  Alcotest.(check bytes) "redundant decode matches data" (stripe_block 0)
    from_redundant.(0)

let test_stats_note_recovery_free_run () =
  (* Failure-free runs must never trigger recovery. *)
  let cluster = Shard_cluster.create ~remap_policy:`Auto (default_cfg ()) in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  run_to_completion cluster (fun () ->
      for i = 0 to 1 do
        Client.write client ~slot:0 ~i (block_of cluster 'n')
      done);
  Alcotest.(check (float 0.01)) "no recovery" 0.
    (Stats.counter (Shard_cluster.stats cluster) "note.recovery.start")

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "client",
    [
      t "write/read roundtrip" test_write_read_roundtrip;
      t "read unwritten block is zeros" test_read_unwritten_is_zero;
      t "overwrite keeps code consistent" test_overwrite;
      t "all update strategies" test_all_strategies;
      t "concurrent writers, coupled blocks (Fig 3C)" test_concurrent_writers_different_blocks;
      t "concurrent writers, same block" test_concurrent_writers_same_block;
      t "8 writers x 25 ops over 4 stripes" test_many_concurrent_writers_many_blocks;
      t "write costs 2(p+1) msgs (Fig 1)" test_write_message_count;
      t "bcast write costs p+3 msgs (Fig 1)" test_bcast_message_count;
      t "rotation spreads stripes" test_rotation_spreads_load;
      t "volume batch API" test_volume_api;
      t "volume validates block size" test_volume_validation;
      t "volume range I/O" test_volume_range_io;
      t "gc empties recent/old lists" test_gc_clears_recentlists;
      t "same-block ordering preserves decodability" test_write_ordering_same_block_preserves_code;
      t "no recovery in failure-free runs" test_stats_note_recovery_free_run;
    ] )
