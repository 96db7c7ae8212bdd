(* Unit tests of the storage-node state machine (Figs 4-7, server side),
   driven directly without a network. *)

open Proto

let make_node ?(client_failed = fun _ -> false) ?(init = `Zeroed) () =
  let time = ref 0. in
  let node =
    Storage_node.create ~client_failed
      ~now:(fun () -> !time)
      ~block_size:16 ~init ()
  in
  (node, time)

let call ?(caller = 1) ?(slot = 0) node req = Storage_node.handle node ~caller ~slot req

let tid seq blk client = { seq; blk; client }
let block c = Bytes.make 16 c

let test_initial_read () =
  let node, _ = make_node () in
  match call node Read with
  | R_read { block = Some b; lmode = Unl } ->
    Alcotest.(check bytes) "zeros" (block '\000') b
  | _ -> Alcotest.fail "expected zeroed block"

let test_init_node_rejects () =
  let node, _ = make_node ~init:`Garbage () in
  (match call node Read with
  | R_read { block = None; lmode = Unl } -> ()
  | _ -> Alcotest.fail "INIT read must fail");
  match call node (Swap { v = block 'x'; ntid = tid 0 0 1 }) with
  | R_swap { block = None; _ } -> ()
  | _ -> Alcotest.fail "INIT swap must fail"

let test_swap_returns_old () =
  let node, time = make_node () in
  (match call node (Swap { v = block 'a'; ntid = tid 0 0 1 }) with
  | R_swap { block = Some old; otid = None; epoch = 0; _ } ->
    Alcotest.(check bytes) "old is zeros" (block '\000') old
  | _ -> Alcotest.fail "swap 1");
  time := 1.;
  match call node (Swap { v = block 'b'; ntid = tid 1 0 1 }) with
  | R_swap { block = Some old; otid = Some o; _ } ->
    Alcotest.(check bytes) "old is a" (block 'a') old;
    Alcotest.(check int) "otid is first write" 0 o.seq
  | _ -> Alcotest.fail "swap 2"

let test_swap_otid_is_latest () =
  let node, time = make_node () in
  for s = 0 to 4 do
    time := float_of_int s;
    ignore (call node (Swap { v = block (Char.chr (97 + s)); ntid = tid s 0 1 }))
  done;
  match call node (Swap { v = block 'z'; ntid = tid 9 0 1 }) with
  | R_swap { otid = Some o; _ } -> Alcotest.(check int) "latest" 4 o.seq
  | _ -> Alcotest.fail "swap"

let test_add_applies_xor () =
  let node, _ = make_node () in
  ignore (call node (Swap { v = block 'a'; ntid = tid 0 0 1 }));
  let dv = Bytes.make 16 '\x03' in
  (match call node (Add { dv; ntid = tid 1 0 2; otid = None; epoch = 0 }) with
  | R_add { status = Add_ok; _ } -> ()
  | _ -> Alcotest.fail "add");
  match call node Read with
  | R_read { block = Some b; _ } ->
    Alcotest.(check char) "xored" (Char.chr (Char.code 'a' lxor 3)) (Bytes.get b 0)
  | _ -> Alcotest.fail "read"

let test_add_order_rejection () =
  let node, _ = make_node () in
  let unknown = tid 77 0 9 in
  (match
     call node
       (Add { dv = block '\x01'; ntid = tid 1 0 2; otid = Some unknown; epoch = 0 })
   with
  | R_add { status = Add_order; _ } -> ()
  | _ -> Alcotest.fail "expected ORDER");
  (* After the predecessor arrives (as an add), the same add passes. *)
  ignore
    (call node (Add { dv = block '\x02'; ntid = unknown; otid = None; epoch = 0 }));
  match
    call node
      (Add { dv = block '\x01'; ntid = tid 1 0 2; otid = Some unknown; epoch = 0 })
  with
  | R_add { status = Add_ok; _ } -> ()
  | _ -> Alcotest.fail "expected OK after predecessor"

let test_add_order_satisfied_by_oldlist () =
  let node, _ = make_node () in
  let pred = tid 5 0 3 in
  ignore (call node (Add { dv = block '\x01'; ntid = pred; otid = None; epoch = 0 }));
  (match call node (Gc_recent [ pred ]) with
  | R_gc { ok = true } -> ()
  | _ -> Alcotest.fail "gc_recent");
  match
    call node
      (Add { dv = block '\x01'; ntid = tid 6 0 3; otid = Some pred; epoch = 0 })
  with
  | R_add { status = Add_ok; _ } -> ()
  | _ -> Alcotest.fail "oldlist satisfies ordering"

let test_add_epoch_rejection () =
  let node, _ = make_node () in
  ignore (call node (Reconstruct { cset = [ 0 ]; blk = block 'r' }));
  ignore (call node (Finalize { epoch = 3 }));
  (match
     call node (Add { dv = block '\x01'; ntid = tid 0 0 1; otid = None; epoch = 2 })
   with
  | R_add { status = Add_fail; _ } -> ()
  | _ -> Alcotest.fail "old epoch must fail");
  match
    call node (Add { dv = block '\x01'; ntid = tid 0 0 1; otid = None; epoch = 3 })
  with
  | R_add { status = Add_ok; _ } -> ()
  | _ -> Alcotest.fail "current epoch must pass"

let test_locks_block_ops () =
  let node, _ = make_node () in
  (match call node (Trylock L1) with
  | R_trylock { ok = true; oldlmode = Unl } -> ()
  | _ -> Alcotest.fail "trylock");
  (match call node Read with
  | R_read { block = None; lmode = L1 } -> ()
  | _ -> Alcotest.fail "read under L1");
  (match call node (Swap { v = block 'x'; ntid = tid 0 0 1 }) with
  | R_swap { block = None; lmode = L1; _ } -> ()
  | _ -> Alcotest.fail "swap under L1");
  (match call node (Add { dv = block '\x01'; ntid = tid 0 0 1; otid = None; epoch = 0 }) with
  | R_add { status = Add_fail; lmode = L1; _ } -> ()
  | _ -> Alcotest.fail "add under L1");
  (* Weaken to L0: adds pass, swaps still fail. *)
  ignore (call node (Setlock L0));
  (match call node (Add { dv = block '\x01'; ntid = tid 0 0 1; otid = None; epoch = 0 }) with
  | R_add { status = Add_ok; lmode = L0; _ } -> ()
  | _ -> Alcotest.fail "add under L0");
  match call node (Swap { v = block 'x'; ntid = tid 1 0 1 }) with
  | R_swap { block = None; _ } -> ()
  | _ -> Alcotest.fail "swap under L0"

let test_trylock_conflict () =
  let node, _ = make_node () in
  ignore (call ~caller:1 node (Trylock L1));
  (match call ~caller:2 node (Trylock L1) with
  | R_trylock { ok = false; oldlmode = L1 } -> ()
  | _ -> Alcotest.fail "second trylock must fail");
  (* Releasing by restoring the old mode. *)
  ignore (call ~caller:1 node (Setlock Unl));
  match call ~caller:2 node (Trylock L1) with
  | R_trylock { ok = true; _ } -> ()
  | _ -> Alcotest.fail "after release"

let test_lock_expiry_on_client_failure () =
  let failed = Hashtbl.create 4 in
  let node, _ = make_node ~client_failed:(Hashtbl.mem failed) () in
  ignore (call ~caller:7 node (Trylock L1));
  Hashtbl.replace failed 7 ();
  (* Any access observes the expiry. *)
  (match call ~caller:2 node Read with
  | R_read { block = None; lmode = Exp } -> ()
  | _ -> Alcotest.fail "lock should expire");
  (* EXP allows a new trylock. *)
  match call ~caller:2 node (Trylock L1) with
  | R_trylock { ok = true; oldlmode = Exp } -> ()
  | _ -> Alcotest.fail "trylock over EXP"

let test_get_state_views () =
  let node, _ = make_node () in
  ignore (call node (Swap { v = block 'a'; ntid = tid 0 0 1 }));
  (match call node Get_state with
  | R_state { st_opmode = Norm; st_block = Some b; st_recentlist = [ t ]; _ } ->
    Alcotest.(check bytes) "block" (block 'a') b;
    Alcotest.(check int) "tid" 0 t.seq
  | _ -> Alcotest.fail "get_state NORM");
  ignore (call node (Reconstruct { cset = [ 0; 1 ]; blk = block 'r' }));
  match call node Get_state with
  | R_state { st_opmode = Recons; st_recons_set = Some [ 0; 1 ]; st_block = Some b; _ }
    ->
    Alcotest.(check bytes) "recons block visible" (block 'r') b
  | _ -> Alcotest.fail "get_state RECONS"

let test_reconstruct_finalize_cycle () =
  let node, _ = make_node ~init:`Garbage () in
  (match call node (Reconstruct { cset = [ 1; 2 ]; blk = block 'v' }) with
  | R_reconstruct { epoch = 0 } -> ()
  | _ -> Alcotest.fail "reconstruct");
  ignore (call node (Finalize { epoch = 1 }));
  (match call node Read with
  | R_read { block = Some b; lmode = Unl } ->
    Alcotest.(check bytes) "recovered" (block 'v') b
  | _ -> Alcotest.fail "read after finalize");
  Alcotest.(check int) "epoch bumped" 1 (Storage_node.peek_epoch node ~slot:0);
  Alcotest.(check (list pass)) "lists cleared" []
    (Storage_node.peek_recentlist node ~slot:0)

let test_checktid_transitions () =
  let node, _ = make_node () in
  let mine = tid 3 0 1 and pred = tid 2 0 9 in
  (* Node never saw my write: INIT. *)
  (match call node (Checktid { ntid = mine; otid = pred }) with
  | R_check Ck_init -> ()
  | _ -> Alcotest.fail "expected INIT");
  ignore (call node (Add { dv = block '\x01'; ntid = mine; otid = None; epoch = 0 }));
  (* My write present, predecessor absent from recentlist: GC. *)
  (match call node (Checktid { ntid = mine; otid = pred }) with
  | R_check Ck_gc -> ()
  | _ -> Alcotest.fail "expected GC");
  ignore (call node (Add { dv = block '\x01'; ntid = pred; otid = None; epoch = 0 }));
  match call node (Checktid { ntid = mine; otid = pred }) with
  | R_check Ck_nochange -> ()
  | _ -> Alcotest.fail "expected NOCHANGE"

let test_gc_two_phase () =
  let node, _ = make_node () in
  let t1 = tid 1 0 1 in
  ignore (call node (Swap { v = block 'a'; ntid = t1 }));
  Alcotest.(check int) "in recent" 1
    (List.length (Storage_node.peek_recentlist node ~slot:0));
  ignore (call node (Gc_recent [ t1 ]));
  Alcotest.(check int) "moved out of recent" 0
    (List.length (Storage_node.peek_recentlist node ~slot:0));
  Alcotest.(check int) "into old" 1
    (List.length (Storage_node.peek_oldlist node ~slot:0));
  ignore (call node (Gc_old [ t1 ]));
  Alcotest.(check int) "dropped" 0
    (List.length (Storage_node.peek_oldlist node ~slot:0))

let test_gc_rejected_when_locked () =
  let node, _ = make_node () in
  ignore (call node (Trylock L1));
  (match call node (Gc_recent []) with
  | R_gc { ok = false } -> ()
  | _ -> Alcotest.fail "gc under lock");
  match call node (Gc_old []) with
  | R_gc { ok = false } -> ()
  | _ -> Alcotest.fail "gc_old under lock"

(* One node's GC batch over a locked slot (1), a recovering slot (2)
   and a Norm, unlocked one (3): the first two are busy and keep their
   lists; the third is collected, in both phases. *)
let test_gc_many_reports_busy_slots () =
  let node, _ = make_node () in
  List.iter
    (fun slot ->
      ignore (call ~slot node (Swap { v = block 'a'; ntid = tid slot 0 1 })))
    [ 1; 2; 3 ];
  ignore (call ~caller:2 ~slot:1 node (Trylock L1));
  ignore (call ~slot:2 node (Reconstruct { cset = [ 0; 1 ]; blk = block 'r' }));
  let batch phase =
    Gc_many { phase; slots = List.map (fun s -> (s, [ tid s 0 1 ])) [ 1; 2; 3 ] }
  in
  (match call ~slot:7 node (batch `Recent) with
  | R_gc_many { busy } -> Alcotest.(check (list int)) "busy" [ 1; 2 ] busy
  | _ -> Alcotest.fail "gc_many recent");
  let lens slot =
    ( List.length (Storage_node.peek_recentlist node ~slot),
      List.length (Storage_node.peek_oldlist node ~slot) )
  in
  Alcotest.(check (list (pair int int)))
    "lists after phase 2" [ (1, 0); (1, 0); (0, 1) ]
    (List.map lens [ 1; 2; 3 ]);
  (match call node (batch `Old) with
  | R_gc_many { busy } -> Alcotest.(check (list int)) "busy" [ 1; 2 ] busy
  | _ -> Alcotest.fail "gc_many old");
  Alcotest.(check (pair int int)) "collected" (0, 0) (lens 3);
  Alcotest.(check (list (testable pp_tid ( = )))) "tombstoned" [ tid 3 0 1 ]
    (Storage_node.peek_tombs node ~slot:3);
  Alcotest.(check int) "node-wide: slot 7 not materialized" 3
    (Storage_node.slot_count node)

(* Tombstones keep tids packed: one that does not fit marks the slot
   overflowed (no longer a delta target) instead of being dropped
   silently or kept inexactly. *)
let test_tombstones_pack_tids () =
  let node, _ = make_node () in
  let wide = tid 5 1 (1 lsl 14) and fits = tid ((1 lsl 32) - 1) 3 ((1 lsl 14) - 1) in
  let collect t =
    ignore (call node (Swap { v = block 'a'; ntid = t }));
    ignore (call node (Gc_recent [ t ]));
    ignore (call node (Gc_old [ t ]))
  in
  collect fits;
  let tid_t = Alcotest.testable pp_tid ( = ) in
  Alcotest.(check (list tid_t)) "widest packable tid round-trips" [ fits ]
    (Storage_node.peek_tombs node ~slot:0);
  collect wide;
  Alcotest.(check int) "too wide: not kept" 1
    (List.length (Storage_node.peek_tombs node ~slot:0));
  match call node Delta_probe with
  | R_delta_probe { dp_tombs_overflow = true; _ } -> ()
  | _ -> Alcotest.fail "expected tombstone overflow"

(* A finalize resent after its first copy unlocked the slot (reply
   lost) must not wipe the writes that got in between. *)
let test_finalize_resend_is_noop () =
  let node, _ = make_node () in
  ignore (call ~caller:2 node (Trylock L1));
  ignore (call ~caller:2 node (Reconstruct { cset = [ 0; 1 ]; blk = block 'r' }));
  ignore (call ~caller:2 node (Finalize { epoch = 1 }));
  ignore (call node (Swap { v = block 'a'; ntid = tid 0 0 1 }));
  ignore (call ~caller:2 node (Finalize { epoch = 1 }));
  Alcotest.(check int) "write still listed" 1
    (List.length (Storage_node.peek_recentlist node ~slot:0));
  Alcotest.(check int) "epoch" 1 (Storage_node.peek_epoch node ~slot:0)

(* A member the recovery did not rebuild (down at its reconstruct,
   back for its finalize) keeps its epoch and lists; only the caller's
   lock is released. *)
let test_finalize_skips_unrebuilt_member () =
  let node, _ = make_node () in
  ignore (call node (Swap { v = block 'a'; ntid = tid 0 0 1 }));
  ignore (call ~caller:2 node (Trylock L1));
  ignore (call ~caller:2 node (Finalize { epoch = 1 }));
  Alcotest.(check int) "epoch kept" 0 (Storage_node.peek_epoch node ~slot:0);
  Alcotest.(check int) "lists kept" 1
    (List.length (Storage_node.peek_recentlist node ~slot:0));
  Alcotest.(check bool) "unlocked" true
    (Storage_node.peek_lmode node ~slot:0 = Unl)

let test_probe () =
  let node, time = make_node () in
  ignore (call ~slot:3 node (Swap { v = block 'a'; ntid = tid 0 0 1 }));
  time := 10.;
  (match call node (Probe { older_than = 5. }) with
  | R_probe { stale = [ 3 ]; init = [] } -> ()
  | R_probe { stale; init } ->
    Alcotest.failf "probe: stale=%s init=%s"
      (String.concat "," (List.map string_of_int stale))
      (String.concat "," (List.map string_of_int init))
  | _ -> Alcotest.fail "probe");
  (* Fresh writes are not stale. *)
  match call node (Probe { older_than = 100. }) with
  | R_probe { stale = []; _ } -> ()
  | _ -> Alcotest.fail "not stale yet"

let test_probe_does_not_materialize () =
  let node, _ = make_node ~init:`Garbage () in
  (match call ~slot:0 node (Probe { older_than = 1. }) with
  | R_probe { init = []; _ } -> ()
  | _ -> Alcotest.fail "no slots yet");
  Alcotest.(check int) "no slot created" 0 (Storage_node.slot_count node);
  ignore (call ~slot:5 node Read);
  match call node (Probe { older_than = 1. }) with
  | R_probe { init = [ 5 ]; _ } -> ()
  | _ -> Alcotest.fail "INIT slot detected"

let test_overhead_accounting () =
  let node, _ = make_node () in
  for slot = 0 to 9 do
    ignore (call ~slot node (Swap { v = block 'a'; ntid = tid slot 0 1 }))
  done;
  let per_slot = Storage_node.overhead_bytes_per_slot node in
  (* Paper reports ~10 bytes/block with GC keeping lists short; with one
     retained tid plus the 28-byte sealed integrity record we are still
     in the same regime (order tens of bytes). *)
  Alcotest.(check bool)
    (Printf.sprintf "per-slot overhead %.1f in [8,96]" per_slot)
    true
    (per_slot >= 8. && per_slot <= 96.);
  (* GC shrinks it. *)
  for slot = 0 to 9 do
    ignore (call ~slot node (Gc_recent [ tid slot 0 1 ]));
    ignore (call ~slot node (Gc_old [ tid slot 0 1 ]))
  done;
  Alcotest.(check bool) "smaller after gc" true
    (Storage_node.overhead_bytes_per_slot node < per_slot)

let test_add_bcast_scaling () =
  let code = Rs_code.create ~k:2 ~n:4 () in
  let layout = Layout.create ~rotate:false ~k:2 ~n:4 () in
  let time = ref 0. in
  (* Node 3 holds redundant position 3. *)
  let node =
    Storage_node.create
      ~alpha_for:(Layout.alpha_oracle layout code ~node:3)
      ~now:(fun () -> !time)
      ~block_size:16 ~init:`Zeroed ()
  in
  let dv = Bytes.make 16 '\x05' in
  (match
     Storage_node.handle node ~caller:1 ~slot:0
       (Add_bcast { dv; dblk = 1; ntid = tid 0 1 1; otid = None; epoch = 0 })
   with
  | R_add { status = Add_ok; _ } -> ()
  | _ -> Alcotest.fail "bcast add");
  let expect = Block_ops.scale (Rs_code.alpha code ~j:3 ~i:1) dv in
  Alcotest.(check bytes) "node scaled by its alpha" expect
    (Storage_node.peek_block node ~slot:0)

let test_directory_remap () =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let net = Net.create engine stats in
  let factory ~index ~generation =
    {
      Directory.net_node =
        Net.add_node net ~name:(Printf.sprintf "s%d.g%d" index generation);
      store =
        Storage_node.create
          ~now:(fun () -> Engine.now engine)
          ~block_size:16
          ~init:(if generation = 0 then `Zeroed else `Garbage)
          ();
      generation;
    }
  in
  let dir = Directory.create ~n:3 factory in
  Alcotest.(check int) "gen 0" 0 (Directory.generation dir 1);
  let e0 = Directory.lookup dir 1 in
  let e1 = Directory.crash_and_remap dir 1 in
  Alcotest.(check bool) "old dead" false (Net.is_alive e0.Directory.net_node);
  Alcotest.(check bool) "new alive" true (Net.is_alive e1.Directory.net_node);
  Alcotest.(check int) "gen 1" 1 (Directory.generation dir 1);
  (* Replacement slots are INIT. *)
  Alcotest.(check bool) "INIT" true
    (Storage_node.peek_opmode e1.Directory.store ~slot:0 = Proto.Init);
  Alcotest.check_raises "bad index"
    (Invalid_argument "Directory: logical node index out of range") (fun () ->
      ignore (Directory.lookup dir 9))

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "storage_node",
    [
      t "initial read returns zeros" test_initial_read;
      t "INIT node rejects read/swap" test_init_node_rejects;
      t "swap returns old value and otid" test_swap_returns_old;
      t "swap otid is the latest write" test_swap_otid_is_latest;
      t "add applies xor" test_add_applies_xor;
      t "add ORDER rejection and retry" test_add_order_rejection;
      t "oldlist satisfies ordering" test_add_order_satisfied_by_oldlist;
      t "add epoch rejection" test_add_epoch_rejection;
      t "L1 blocks ops, L0 admits adds" test_locks_block_ops;
      t "trylock conflict" test_trylock_conflict;
      t "lock expiry on client failure" test_lock_expiry_on_client_failure;
      t "get_state views" test_get_state_views;
      t "reconstruct/finalize cycle" test_reconstruct_finalize_cycle;
      t "checktid transitions" test_checktid_transitions;
      t "gc two-phase" test_gc_two_phase;
      t "gc rejected when locked" test_gc_rejected_when_locked;
      t "gc batch reports busy slots" test_gc_many_reports_busy_slots;
      t "finalize resend is a no-op" test_finalize_resend_is_noop;
      t "tombstones pack tids" test_tombstones_pack_tids;
      t "finalize skips an unrebuilt member" test_finalize_skips_unrebuilt_member;
      t "probe stale and INIT slots" test_probe;
      t "probe does not materialize slots" test_probe_does_not_materialize;
      t "overhead accounting (Sec 6.5)" test_overhead_accounting;
      t "broadcast add scales by node alpha" test_add_bcast_scaling;
      t "directory crash and remap" test_directory_remap;
    ] )
