(* End-to-end integrity: sealed checksum records, the defense layers of
   the read path, and the scrub-side cross-member check.

   White-box access (peek_meta / storage_entry) follows the pattern of
   test_scrub.ml: the simulated cluster exposes node internals for
   assertions only. *)

open Sim_harness

let cfg_3_5 () = Config.make ~t_p:1 ~block_size:64 ~k:3 ~n:5 ()

let cfg_verified () =
  Config.make ~t_p:1 ~block_size:64 ~k:3 ~n:5
    ~integrity:{ Config.default_integrity with Config.verified_reads = true }
    ()

let store_of cluster node = (member cluster node).Directory.store

(* ------------------------------------------------------------------ *)
(* Checksum record unit tests.                                         *)

let test_checksum_roundtrip () =
  let b = Bytes.init 64 (fun i -> Char.chr (i * 3 land 0xff)) in
  let writer = Checksum.pack_writer ~seq:1 ~blk:0 ~client:7 in
  let r = Checksum.make ~epoch:3 ~writer b in
  Alcotest.(check bool) "valid" true (Checksum.verify r ~epoch:3 b = Valid);
  let b' = Bytes.copy b in
  Bytes.set b' 10 '\255';
  Alcotest.(check bool) "bit rot caught" true
    (Checksum.verify r ~epoch:3 b' = Digest_mismatch);
  Alcotest.(check bool) "stale epoch caught" true
    (Checksum.verify r ~epoch:4 b = Stale_epoch);
  let tampered = { r with Checksum.epoch = 9 } in
  Alcotest.(check bool) "tampered record caught" true
    (Checksum.verify tampered ~epoch:9 b = Bad_seal);
  let resealed = Checksum.reseal r ~epoch:4 in
  Alcotest.(check bool) "reseal carries digest" true
    (Checksum.verify resealed ~epoch:4 b = Valid)

(* The digest covers block bytes only, so the commutative-add algebra
   is preserved: the same writes applied in either order leave every
   redundant member with the same block and hence the same digest. *)
let test_digest_commutes_with_adds () =
  let run order =
    let cluster = Shard_cluster.create ~remap_policy:`Auto (cfg_3_5 ()) in
    let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
    run_to_completion cluster (fun () ->
        List.iter
          (fun i ->
            Client.write client ~slot:0 ~i (block_of cluster (Char.chr (65 + i))))
          order);
    let layout = Shard_cluster.group_layout cluster 0 in
    let node = Layout.node_of layout ~stripe:0 ~pos:3 in
    let store = store_of cluster node in
    let meta = Storage_node.peek_meta store ~slot:0 in
    let block = Storage_node.peek_block store ~slot:0 in
    (meta.Checksum.digest, block)
  in
  let d1, b1 = run [ 0; 1; 2 ] in
  let d2, b2 = run [ 2; 0; 1 ] in
  Alcotest.(check bytes) "same redundant block" b1 b2;
  Alcotest.(check int64) "same digest either order" d1 d2;
  Alcotest.(check int64) "digest matches bytes" (Checksum.digest_bytes b1) d1

(* ------------------------------------------------------------------ *)
(* Block digest properties (Checksum.digest_bytes).                    *)

let patterned len =
  Bytes.init len (fun i -> Char.chr ((i * 131 + 7) land 0xff))

(* Every one of the 255 other values at byte [off] changes the digest. *)
let check_every_byte_change b ~from =
  let d = Checksum.digest_bytes b in
  for off = from to Bytes.length b - 1 do
    let orig = Bytes.get b off in
    for delta = 1 to 255 do
      Bytes.set b off (Char.chr (Char.code orig lxor delta));
      if Checksum.digest_bytes b = d then
        Alcotest.failf "len %d: byte %d xor %d leaves the digest unchanged"
          (Bytes.length b) off delta
    done;
    Bytes.set b off orig
  done

let test_digest_catches_every_byte_change () =
  check_every_byte_change (patterned 4096) ~from:0;
  (* 65 549 = 2048 words of 32 bytes + a 13-byte tail: the last 40
     bytes span the final lane step and the byte-wise tail. *)
  check_every_byte_change (patterned 65549) ~from:(65549 - 40)

let test_digest_lengths () =
  let zero =
    List.init 71 (fun len -> Checksum.digest_bytes (Bytes.make len '\000'))
  in
  Alcotest.(check int) "zero blocks of lengths 0-70 all differ" 71
    (List.length (List.sort_uniq compare zero));
  for len = 1 to 70 do
    check_every_byte_change (patterned len) ~from:0
  done

let test_digest_bytes_only () =
  let b = patterned 1000 in
  (* The same contents at an odd offset of a larger buffer. *)
  let wide = Bytes.make 1003 'x' in
  Bytes.blit b 0 wide 3 1000;
  Alcotest.(check int64) "copy" (Checksum.digest_bytes b)
    (Checksum.digest_bytes (Bytes.copy b));
  Alcotest.(check int64) "unaligned source" (Checksum.digest_bytes b)
    (Checksum.digest_bytes (Bytes.sub wide 3 1000))

(* Pinned so that a change to the function is a deliberate one. *)
let test_digest_known_answer () =
  Alcotest.(check int64) "100 patterned bytes" 0x3d018692b21491dbL
    (Checksum.digest_bytes (patterned 100))

let test_digest_no_alloc_per_word () =
  let b = patterned 65536 in
  let words calls =
    let w0 = Stdlib.Gc.minor_words () in
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (Checksum.digest_bytes b))
    done;
    Stdlib.Gc.minor_words () -. w0
  in
  (* Subtract what reading the counter itself allocates. *)
  let per_call = (words 64 -. words 0) /. 64. in
  if per_call > 3. then
    Alcotest.failf "%.2f minor words per 64 KiB digest (want <= 3)" per_call

(* ------------------------------------------------------------------ *)
(* Defense layer 1: node-side self-check on plain reads.               *)

let test_plain_read_heals_corruption () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (cfg_3_5 ()) in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  let v =
    run_to_completion cluster (fun () ->
        Client.write client ~slot:0 ~i:0 (block_of cluster 'p');
        let node =
          Layout.node_of (Shard_cluster.group_layout cluster 0) ~stripe:0 ~pos:0
        in
        Alcotest.(check bool) "injected" true
          (Shard_cluster.corrupt_member cluster ~group:0 ~index:node ~slot:0);
        Client.read client ~slot:0 ~i:0)
  in
  Alcotest.(check bytes) "correct bytes despite rot" (block_of cluster 'p') v;
  Alcotest.(check bool) "node self-check fired" true
    (Stats.counter (Shard_cluster.stats cluster) "integrity.node_detected" >=
      1.)

(* Defense layer 2: client-side verified read (the node deliberately
   does not self-check this request — the check is end-to-end). *)

let test_verified_read_catches_corruption () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (cfg_verified ()) in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  let v =
    run_to_completion cluster (fun () ->
        Client.write client ~slot:0 ~i:1 (block_of cluster 'v');
        let node =
          Layout.node_of (Shard_cluster.group_layout cluster 0) ~stripe:0 ~pos:1
        in
        Alcotest.(check bool) "injected" true
          (Shard_cluster.corrupt_member cluster ~group:0 ~index:node ~slot:0);
        Client.read client ~slot:0 ~i:1)
  in
  Alcotest.(check bytes) "correct bytes" (block_of cluster 'v') v;
  let m = Shard_cluster.group_metrics cluster 0 in
  Alcotest.(check bool) "client caught it" true
    (Metrics.counter m "read.verify_caught" >= 1);
  Alcotest.(check bool) "verified reads counted" true
    (Metrics.counter m "read.verified" >= 1)

(* ------------------------------------------------------------------ *)
(* Defense layer 3: the cross-member decode check.                     *)

(* Same-record rollback: block and sealed record restored together, so
   the node's self-check passes — only decoding k-subsets against each
   other can identify the stale member. *)
let test_check_integrity_finds_same_record_rollback () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (cfg_3_5 ()) in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  let report =
    run_to_completion cluster (fun () ->
        Client.write client ~slot:0 ~i:0 (block_of cluster '1');
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
        Client.write client ~slot:0 ~i:0 (block_of cluster '2');
        Alcotest.(check bool) "rolled back" true
          (Shard_cluster.rollback_member cluster ~group:0 ~index:node ~slot:0
            snap);
        Client.check_integrity client ~slot:0)
  in
  Alcotest.(check bool) "inconsistent" false report.Client.ir_consistent;
  Alcotest.(check (list int)) "culprit identified" [ 3 ] report.Client.ir_stale;
  Alcotest.(check (list int)) "self-checks all pass" [] report.Client.ir_checksum

(* Cross-epoch rollback: recovery finalized (epoch bump) between the
   snapshot and the rollback, so the sealed record's epoch betrays the
   stale state to the node's own self-check. *)
let test_check_integrity_finds_cross_epoch_rollback () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (cfg_3_5 ()) in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  let report =
    run_to_completion cluster (fun () ->
        Client.write client ~slot:0 ~i:0 (block_of cluster 'e');
        let layout = Shard_cluster.group_layout cluster 0 in
        let victim = Layout.node_of layout ~stripe:0 ~pos:3 in
        let snap =
          match
            Shard_cluster.snapshot_member cluster ~group:0 ~index:victim ~slot:0
          with
          | Some s -> s
          | None -> Alcotest.fail "no snapshot"
        in
        (* Crash another member and repair: recovery finalize bumps the
           stripe epoch everywhere. *)
        let other = Layout.node_of layout ~stripe:0 ~pos:4 in
        Shard_cluster.replace_node cluster other;
        let rep = Scrub.scrub_slot client ~slot:0 in
        Alcotest.(check int) "repaired" 1 rep.Scrub.repaired;
        Alcotest.(check bool) "rolled back" true
          (Shard_cluster.rollback_member cluster ~group:0 ~index:victim ~slot:0
            snap);
        Client.check_integrity client ~slot:0)
  in
  Alcotest.(check (list int)) "stale epoch self-detected" [ 3 ]
    report.Client.ir_checksum

(* ------------------------------------------------------------------ *)
(* Scrub repairs what the layers detect, within bounded rounds.        *)

let test_scrub_repairs_corruption_everywhere () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (cfg_3_5 ()) in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  let reports =
    run_to_completion cluster (fun () ->
        for s = 0 to 2 do
          for i = 0 to 2 do
            Client.write client ~slot:s ~i (block_of cluster 'x')
          done
        done;
        let layout = Shard_cluster.group_layout cluster 0 in
        for s = 0 to 2 do
          let node = Layout.node_of layout ~stripe:s ~pos:(3 + (s mod 2)) in
          Alcotest.(check bool) "injected" true
            (Shard_cluster.corrupt_member cluster ~group:0 ~index:node ~slot:s)
        done;
        List.init 3 (fun s -> Scrub.scrub_slot client ~slot:s))
  in
  List.iteri
    (fun s (r : Scrub.report) ->
      Alcotest.(check int) (Printf.sprintf "slot %d repaired" s) 1
        r.Scrub.repaired;
      Alcotest.(check int) (Printf.sprintf "slot %d unrepaired" s) 0
        r.Scrub.unrepaired;
      Alcotest.(check bool)
        (Printf.sprintf "slot %d flagged member rebuilt" s)
        true
        (r.Scrub.integrity_repaired >= 1))
    reports;
  (* One more sweep: everything must now be clean in one round. *)
  let again =
    run_to_completion cluster (fun () ->
        Scrub.scrub client ~slots:[ 0; 1; 2 ])
  in
  Alcotest.(check int) "all healthy after one round" 3 again.Scrub.healthy;
  (* Stripes are whole again, byte-for-byte. *)
  let layout = Shard_cluster.group_layout cluster 0 in
  for s = 0 to 2 do
    let blocks =
      Array.init 5 (fun pos ->
          let node = Layout.node_of layout ~stripe:s ~pos in
          Storage_node.peek_block (store_of cluster node) ~slot:s)
    in
    Alcotest.(check bool)
      (Printf.sprintf "stripe %d consistent" s)
      true
      (Rs_code.verify_stripe (Shard_cluster.code cluster) blocks)
  done

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "integrity",
    [
      t "checksum record round-trip" test_checksum_roundtrip;
      t "digest commutes with add order" test_digest_commutes_with_adds;
      t "digest catches every single-byte change"
        test_digest_catches_every_byte_change;
      t "digest of lengths 0-70" test_digest_lengths;
      t "digest depends on bytes only" test_digest_bytes_only;
      t "digest known answer" test_digest_known_answer;
      t "digest allocates only its result" test_digest_no_alloc_per_word;
      t "plain read heals bit rot (node self-check)"
        test_plain_read_heals_corruption;
      t "verified read catches bit rot end-to-end"
        test_verified_read_catches_corruption;
      t "cross-member check identifies same-record rollback"
        test_check_integrity_finds_same_record_rollback;
      t "self-check catches cross-epoch rollback"
        test_check_integrity_finds_cross_epoch_rollback;
      t "scrub repairs corruption in bounded rounds"
        test_scrub_repairs_corruption_everywhere;
    ] )
