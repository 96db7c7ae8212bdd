(* Tests of the simulator-free Direct_env: the same protocol code, run
   immediately in-process — validating the transport-agnostic design. *)

let blk cfg c = Bytes.make cfg.Config.block_size c

let cfg_3_5 () =
  Config.make ~strategy:Config.Serial ~t_p:1 ~block_size:32 ~k:3 ~n:5 ()

let stripe_consistent direct cfg ~slot =
  let layout = Layout.create ~k:cfg.Config.k ~n:cfg.Config.n () in
  let code = Rs_code.create ~k:cfg.Config.k ~n:cfg.Config.n () in
  let blocks =
    Array.init cfg.Config.n (fun pos ->
        let node = Layout.node_of layout ~stripe:slot ~pos in
        Bytes.copy (Storage_node.peek_block (Direct_env.node_store direct node) ~slot))
  in
  Rs_code.verify_stripe code blocks

let test_roundtrip () =
  let cfg = cfg_3_5 () in
  let direct = Direct_env.create cfg in
  let client = Direct_env.make_client direct ~id:0 in
  for i = 0 to 2 do
    Client.write client ~slot:0 ~i (blk cfg (Char.chr (97 + i)))
  done;
  for i = 0 to 2 do
    Alcotest.(check bytes)
      (Printf.sprintf "block %d" i)
      (blk cfg (Char.chr (97 + i)))
      (Client.read client ~slot:0 ~i)
  done;
  Alcotest.(check bool) "consistent" true (stripe_consistent direct cfg ~slot:0)

let test_volume_api () =
  (* Logical blocks across stripes: block l is data position l mod k of
     stripe l / k. *)
  let cfg = cfg_3_5 () in
  let direct = Direct_env.create cfg in
  let client = Direct_env.make_client direct ~id:0 in
  for l = 0 to 11 do
    Client.write client ~slot:(l / 3) ~i:(l mod 3) (blk cfg (Char.chr (65 + l)))
  done;
  for l = 0 to 11 do
    Alcotest.(check bytes)
      (Printf.sprintf "block %d" l)
      (blk cfg (Char.chr (65 + l)))
      (Client.read client ~slot:(l / 3) ~i:(l mod 3))
  done

let test_crash_and_recover () =
  let cfg = cfg_3_5 () in
  let direct = Direct_env.create cfg in
  let client = Direct_env.make_client direct ~id:0 in
  Client.write client ~slot:0 ~i:0 (blk cfg 'v');
  Direct_env.crash_node direct 0;
  Direct_env.remap_node direct 0;
  Alcotest.(check bytes) "recovered" (blk cfg 'v') (Client.read client ~slot:0 ~i:0);
  Alcotest.(check bool) "consistent" true (stripe_consistent direct cfg ~slot:0);
  Alcotest.(check int) "one recovery" 1 (Client.recoveries_run client)

let test_clock_advances () =
  let cfg = cfg_3_5 () in
  let direct = Direct_env.create cfg in
  let client = Direct_env.make_client direct ~id:0 in
  let t0 = Direct_env.now direct in
  Client.write client ~slot:0 ~i:0 (blk cfg 'x');
  Alcotest.(check bool) "clock moved" true (Direct_env.now direct > t0)

let test_two_clients_interleaved_sequentially () =
  (* No concurrency in direct mode, but two clients sharing nodes must
     still interoperate (tids are client-disambiguated). *)
  let cfg = cfg_3_5 () in
  let direct = Direct_env.create cfg in
  let c1 = Direct_env.make_client direct ~id:1 in
  let c2 = Direct_env.make_client direct ~id:2 in
  Client.write c1 ~slot:0 ~i:0 (blk cfg 'a');
  Client.write c2 ~slot:0 ~i:0 (blk cfg 'b');
  Client.write c1 ~slot:0 ~i:1 (blk cfg 'c');
  Alcotest.(check bytes) "latest same-block write wins" (blk cfg 'b')
    (Client.read c2 ~slot:0 ~i:0);
  Alcotest.(check bool) "consistent" true (stripe_consistent direct cfg ~slot:0)

let test_gc_in_direct_mode () =
  let cfg = cfg_3_5 () in
  let direct = Direct_env.create cfg in
  let client = Direct_env.make_client direct ~id:0 in
  Client.write client ~slot:0 ~i:0 (blk cfg 'g');
  Client.collect_garbage client;
  Client.collect_garbage client;
  Alcotest.(check int) "gc drained" 0 (Client.pending_gc client);
  Alcotest.(check int) "recentlist empty at data node" 0
    (List.length (Storage_node.peek_recentlist (Direct_env.node_store direct 0) ~slot:0))

(* A client over a transport that counts every RPC it carries. *)
let counting_client direct cfg ~id =
  let calls = ref 0 in
  let (module T : Transport.S) = Direct_env.transport direct ~id in
  let transport =
    (module struct
      include T

      let call ?deadline ~slot ~pos req =
        incr calls;
        T.call ?deadline ~slot ~pos req

      let call_node ?deadline ~node req =
        incr calls;
        T.call_node ?deadline ~node req
    end : Transport.S)
  in
  let layout = Layout.create ~k:cfg.Config.k ~n:cfg.Config.n () in
  let client =
    Client.of_transport
      ~locate:(fun ~slot ~pos -> Layout.node_of layout ~stripe:slot ~pos)
      cfg
      (Rs_code.create ~k:cfg.Config.k ~n:cfg.Config.n ())
      transport
  in
  (client, layout, calls)

(* Fig 7 batched per node: one round over 64 writes' tids sends at most
   one request per node and phase; a tid on a locked slot survives its
   round and is collected once the slot is unlocked. *)
let test_gc_round_batched_per_node () =
  let cfg = cfg_3_5 () in
  let n = cfg.Config.n in
  let direct = Direct_env.create cfg in
  let client, layout, calls = counting_client direct cfg ~id:1 in
  let write_64 c =
    for l = 0 to 63 do
      Client.write client ~slot:(l / 3) ~i:(l mod 3) (blk cfg c)
    done
  in
  write_64 'a';
  Client.collect_garbage client;
  write_64 'b';
  calls := 0;
  Client.collect_garbage client;
  Alcotest.(check bool)
    (Printf.sprintf "%d RPCs for a round of 128 tids" !calls)
    true
    (!calls > 0 && !calls <= 2 * n);
  (* Lock slot 5 at the node serving its block 1, as a recoverer would. *)
  let locked = Layout.node_of layout ~stripe:5 ~pos:1 in
  let store = Direct_env.node_store direct locked in
  Client.write client ~slot:5 ~i:1 (blk cfg 'c');
  ignore (Storage_node.handle store ~caller:9 ~slot:5 (Proto.Trylock Proto.L1));
  for _ = 1 to 3 do
    Client.collect_garbage client
  done;
  (* Left: the new write, not yet moved, and slot 5's previous block-1
     write, moved everywhere but not yet dropped at the locked node. *)
  Alcotest.(check int) "only the locked slot's tids are left" 2
    (Client.pending_gc client);
  Alcotest.(check (pair int int)) "still listed at the locked node" (1, 1)
    ( List.length (Storage_node.peek_recentlist store ~slot:5),
      List.length (Storage_node.peek_oldlist store ~slot:5) );
  ignore (Storage_node.handle store ~caller:9 ~slot:5 (Proto.Setlock Proto.Unl));
  Client.collect_garbage client;
  Client.collect_garbage client;
  Alcotest.(check int) "collected after unlock" 0 (Client.pending_gc client);
  for node = 0 to n - 1 do
    let st = Direct_env.node_store direct node in
    for slot = 0 to 21 do
      Alcotest.(check (pair int int))
        (Printf.sprintf "node %d slot %d lists empty" node slot)
        (0, 0)
        ( List.length (Storage_node.peek_recentlist st ~slot),
          List.length (Storage_node.peek_oldlist st ~slot) )
    done
  done

let test_lock_expiry_via_failure_detector () =
  (* A "crashed" recoverer's lock expires through the failure-detector
     oracle, letting another client recover. *)
  let cfg = cfg_3_5 () in
  let direct = Direct_env.create cfg in
  let c1 = Direct_env.make_client direct ~id:1 in
  Client.write c1 ~slot:0 ~i:0 (blk cfg 'l');
  (* Manually lock node 0's slot as client 1 (as a stuck recovery would). *)
  ignore
    (Storage_node.handle (Direct_env.node_store direct 0) ~caller:1 ~slot:0
       (Proto.Trylock Proto.L1));
  Direct_env.mark_client_failed direct 1;
  let c2 = Direct_env.make_client direct ~id:2 in
  (* c2's read sees the expired lock and recovers. *)
  Alcotest.(check bytes) "read through expired lock" (blk cfg 'l')
    (Client.read c2 ~slot:0 ~i:0);
  Alcotest.(check bool) "unlocked after recovery" true
    (Storage_node.peek_lmode (Direct_env.node_store direct 0) ~slot:0 = Proto.Unl)

let test_bcast_strategy_falls_back () =
  (* Direct env has no broadcast; the Bcast strategy must fall back to
     unicast and still be correct. *)
  let cfg = Config.make ~strategy:Config.Bcast ~t_p:1 ~block_size:32 ~k:2 ~n:4 () in
  let direct = Direct_env.create cfg in
  let client = Direct_env.make_client direct ~id:0 in
  Client.write client ~slot:0 ~i:0 (blk cfg 'z');
  Alcotest.(check bytes) "read back" (blk cfg 'z') (Client.read client ~slot:0 ~i:0)

let test_degraded_read_direct () =
  let cfg = cfg_3_5 () in
  let direct = Direct_env.create cfg in
  let client = Direct_env.make_client direct ~id:0 in
  Client.write client ~slot:0 ~i:0 (blk cfg 'q');
  Direct_env.crash_node direct 0;
  (* Without remap, the normal read cannot proceed, but degraded can. *)
  match Client.read_degraded client ~slot:0 ~i:0 with
  | Some b -> Alcotest.(check bytes) "decoded" (blk cfg 'q') b
  | None -> Alcotest.fail "degraded read failed"

let test_order_phantom_predecessor_resolves () =
  (* A phantom predecessor: inject a swap whose tid never reaches the
     redundant nodes (a writer that died instantly after its swap).  The
     next same-block writer gets ORDER forever, must tire of looping
     (Fig 5 line 13) and run recovery, then land its write. *)
  let cfg =
    Config.make ~strategy:Config.Serial ~t_p:1 ~block_size:32 ~k:3 ~n:5
      ~order_retry_limit:3 ()
  in
  let direct = Direct_env.create cfg in
  let client = Direct_env.make_client direct ~id:2 in
  Client.write client ~slot:0 ~i:0 (blk cfg 'a');
  (* Dead writer's torn swap, applied straight to the data node. *)
  let phantom = { Proto.seq = 0; blk = 0; client = 99 } in
  (match
     Storage_node.handle (Direct_env.node_store direct 0) ~caller:99 ~slot:0
       (Proto.Swap { v = blk cfg 'Z'; ntid = phantom })
   with
  | Proto.R_swap { block = Some _; _ } -> ()
  | _ -> Alcotest.fail "phantom swap rejected");
  Direct_env.mark_client_failed direct 99;
  (* The next writer must converge despite the phantom. *)
  Client.write client ~slot:0 ~i:0 (blk cfg 'b');
  Alcotest.(check bytes) "write landed" (blk cfg 'b')
    (Client.read client ~slot:0 ~i:0);
  Alcotest.(check bool) "recovery was needed" true
    (Client.recoveries_run client >= 1);
  Alcotest.(check bool) "consistent" true (stripe_consistent direct cfg ~slot:0)

let test_partial_gc_resolves_via_checktid () =
  (* Sec 3.9: a GC that died between nodes.  After W1 completes, the tid
     is (a) still in the data node's recentlist, (b) moved to the
     oldlist at redundant R1 (phase 2 ran there), (c) fully discarded at
     redundant R2 (both phases ran there).  The next same-block write W2
     carries otid = W1: R2 answers ORDER (W1 unknown), the checktid on
     the done-set finds W1 gone from R1's recentlist (GC status), W2
     drops the otid check and completes — with no recovery. *)
  let cfg = cfg_3_5 () in
  let direct = Direct_env.create cfg in
  let client = Direct_env.make_client direct ~id:1 in
  Client.write client ~slot:0 ~i:0 (blk cfg 'p');
  let w1 =
    match Storage_node.peek_recentlist (Direct_env.node_store direct 0) ~slot:0 with
    | t :: _ -> t
    | [] -> Alcotest.fail "no tid recorded"
  in
  let gc node reqs =
    List.iter
      (fun req ->
        match
          Storage_node.handle (Direct_env.node_store direct node) ~caller:1
            ~slot:0 req
        with
        | Proto.R_gc { ok = true } -> ()
        | _ -> Alcotest.fail "gc step failed")
      reqs
  in
  (* Stripe 0 redundant positions 3,4 live on nodes 3,4. *)
  gc 3 [ Proto.Gc_recent [ w1 ] ];
  gc 4 [ Proto.Gc_recent [ w1 ]; Proto.Gc_old [ w1 ] ];
  let w2_client = Direct_env.make_client direct ~id:2 in
  Client.write w2_client ~slot:0 ~i:0 (blk cfg 'q');
  Alcotest.(check bytes) "landed" (blk cfg 'q')
    (Client.read w2_client ~slot:0 ~i:0);
  Alcotest.(check int) "no recovery needed" 0 (Client.recoveries_run w2_client);
  Alcotest.(check bool) "consistent" true (stripe_consistent direct cfg ~slot:0)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "direct_env",
    [
      t "write/read roundtrip" test_roundtrip;
      t "volume API" test_volume_api;
      t "crash, remap, recover" test_crash_and_recover;
      t "clock advances" test_clock_advances;
      t "two clients interoperate" test_two_clients_interleaved_sequentially;
      t "gc" test_gc_in_direct_mode;
      t "gc round batched per node" test_gc_round_batched_per_node;
      t "lock expiry via failure detector" test_lock_expiry_via_failure_detector;
      t "bcast strategy falls back to unicast" test_bcast_strategy_falls_back;
      t "degraded read" test_degraded_read_direct;
      t "phantom predecessor: tired-of-looping recovery" test_order_phantom_predecessor_resolves;
      t "partial GC resolves via checktid (Sec 3.9)" test_partial_gc_resolves_via_checktid;
    ] )
