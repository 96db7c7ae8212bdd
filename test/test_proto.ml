(* Tests for the wire protocol's size accounting and tid helpers — what
   the simulator charges the network, so Fig 1's byte counts rest on
   this. *)

open Proto

let tid seq blk client = { seq; blk; client }
let blk n = Bytes.make n 'x'

let test_tid_compare () =
  let a = tid 1 0 1 and b = tid 2 0 1 and c = tid 1 0 2 in
  Alcotest.(check int) "equal" 0 (tid_compare a a);
  Alcotest.(check bool) "seq orders" true (tid_compare a b < 0);
  Alcotest.(check bool) "client orders" true (tid_compare a c < 0);
  Alcotest.(check bool) "antisymmetric" true
    (tid_compare b a > 0 && tid_compare c a > 0)

let test_tid_to_string () =
  Alcotest.(check string) "fmt" "<3,1,c7>" (tid_to_string (tid 3 1 7))

let test_mode_strings () =
  Alcotest.(check string) "unl" "UNL" (lmode_to_string Unl);
  Alcotest.(check string) "l0" "L0" (lmode_to_string L0);
  Alcotest.(check string) "l1" "L1" (lmode_to_string L1);
  Alcotest.(check string) "exp" "EXP" (lmode_to_string Exp);
  Alcotest.(check string) "norm" "NORM" (opmode_to_string Norm);
  Alcotest.(check string) "recons" "RECONS" (opmode_to_string Recons);
  Alcotest.(check string) "init" "INIT" (opmode_to_string Init)

let test_request_sizes_scale_with_block () =
  (* Block-carrying requests grow by exactly the block size. *)
  let swap n = request_bytes (Swap { v = blk n; ntid = tid 0 0 1 }) in
  Alcotest.(check int) "swap scales" 1024 (swap 1536 - swap 512);
  let add n =
    request_bytes (Add { dv = blk n; ntid = tid 0 0 1; otid = None; epoch = 0 })
  in
  Alcotest.(check int) "add scales" 1000 (add 1100 - add 100);
  (* Control requests stay small. *)
  List.iter
    (fun req ->
      Alcotest.(check bool)
        (request_tag req ^ " is small")
        true
        (request_bytes req <= 64))
    [
      Read;
      Checktid { ntid = tid 0 0 1; otid = tid 1 0 1 };
      Trylock L1;
      Setlock L0;
      Get_state;
      Getrecent L1;
      Finalize { epoch = 3 };
      Probe { older_than = 1.0 };
    ]

let test_add_with_otid_larger () =
  let without =
    request_bytes (Add { dv = blk 10; ntid = tid 0 0 1; otid = None; epoch = 0 })
  in
  let with_o =
    request_bytes
      (Add { dv = blk 10; ntid = tid 0 0 1; otid = Some (tid 1 0 1); epoch = 0 })
  in
  Alcotest.(check int) "otid adds tid_bytes" tid_bytes (with_o - without)

let test_gc_requests_scale_with_tids () =
  let gc n = request_bytes (Gc_old (List.init n (fun i -> tid i 0 1))) in
  Alcotest.(check int) "per-tid cost" (3 * tid_bytes) (gc 5 - gc 2)

let test_gc_many_bytes () =
  let batch slots = request_bytes (Gc_many { phase = `Recent; slots }) in
  let tids n = List.init n (fun i -> tid i 0 1) in
  Alcotest.(check int) "per-tid cost" (3 * tid_bytes)
    (batch [ (0, tids 5) ] - batch [ (0, tids 2) ]);
  Alcotest.(check int) "per-slot cost: slot id + list header"
    (4 + 4 + tid_bytes)
    (batch [ (0, tids 2); (1, tids 1) ] - batch [ (0, tids 2) ]);
  Alcotest.(check int) "busy reply per slot" 4
    (response_bytes (R_gc_many { busy = [ 1; 2 ] })
    - response_bytes (R_gc_many { busy = [ 1 ] }))

let test_response_sizes () =
  (* A read reply carries the block; an error reply does not. *)
  let full = response_bytes (R_read { block = Some (blk 1024); lmode = Unl }) in
  let empty = response_bytes (R_read { block = None; lmode = Unl }) in
  Alcotest.(check bool) "block dominates" true (full - empty >= 1024);
  Alcotest.(check bool) "error reply tiny" true (empty < 16);
  (* Swap replies carry the old block. *)
  let swap_full =
    response_bytes
      (R_swap { block = Some (blk 512); epoch = 0; otid = None; lmode = Unl })
  in
  Alcotest.(check bool) "swap carries old block" true (swap_full >= 512);
  (* Adds are tiny either way. *)
  Alcotest.(check bool) "add reply tiny" true
    (response_bytes (R_add { status = Add_ok; opmode = Norm; lmode = Unl }) < 16)

let test_state_view_size () =
  let view tids =
    R_state
      {
        st_opmode = Norm;
        st_epoch = 0;
        st_recons_set = None;
        st_oldlist = [];
        st_recentlist = List.init tids (fun i -> tid i 0 1);
        st_block = Some (blk 256);
      }
  in
  let d = response_bytes (view 10) - response_bytes (view 0) in
  Alcotest.(check int) "recentlist per-tid" (10 * tid_bytes) d

let test_tags_distinct () =
  let reqs =
    [
      Read;
      Swap { v = blk 1; ntid = tid 0 0 1 };
      Add { dv = blk 1; ntid = tid 0 0 1; otid = None; epoch = 0 };
      Add_bcast { dv = blk 1; dblk = 0; ntid = tid 0 0 1; otid = None; epoch = 0 };
      Checktid { ntid = tid 0 0 1; otid = tid 1 0 1 };
      Trylock L1;
      Setlock L0;
      Get_state;
      Getrecent L1;
      Reconstruct { cset = []; blk = blk 1 };
      Finalize { epoch = 0 };
      Gc_old [];
      Gc_recent [];
      Gc_many { phase = `Old; slots = [] };
      Gc_many { phase = `Recent; slots = [] };
      Probe { older_than = 0. };
    ]
  in
  let tags = List.map request_tag reqs in
  Alcotest.(check int) "all tags distinct" (List.length tags)
    (List.length (List.sort_uniq compare tags))

let test_pp_printers () =
  let s pp v = Format.asprintf "%a" pp v in
  Alcotest.(check string) "pp_tid" "<3,1,c7>" (s pp_tid (tid 3 1 7));
  Alcotest.(check string) "swap renders size, not payload"
    "swap{64B ntid=<0,2,c1>}"
    (s pp_request (Swap { v = blk 64; ntid = tid 0 2 1 }));
  Alcotest.(check string) "add with predecessor"
    "add{16B ntid=<1,0,c1> otid=<0,0,c1> epoch=2}"
    (s pp_request
       (Add { dv = blk 16; ntid = tid 1 0 1; otid = Some (tid 0 0 1); epoch = 2 }));
  Alcotest.(check string) "gc batch" "gc_recent[<0,0,c1>;<1,2,c3>]"
    (s pp_request (Gc_recent [ tid 0 0 1; tid 1 2 3 ]));
  Alcotest.(check string) "gc batch per node"
    "gc_old_many{4:[<0,0,c1>] 9:[<1,2,c3>;<2,2,c3>]}"
    (s pp_request
       (Gc_many
          {
            phase = `Old;
            slots = [ (4, [ tid 0 0 1 ]); (9, [ tid 1 2 3; tid 2 2 3 ]) ];
          }));
  Alcotest.(check string) "gc batch reply" "r_gc_many{busy=[3;8]}"
    (s pp_response (R_gc_many { busy = [ 3; 8 ] }));
  Alcotest.(check string) "response: locked read" "r_read{- lmode=L1}"
    (s pp_response (R_read { block = None; lmode = L1 }));
  Alcotest.(check string) "response: add order rejection"
    "r_add{order NORM UNL}"
    (s pp_response (R_add { status = Add_order; opmode = Norm; lmode = Unl }))

let prop_request_bytes_positive =
  QCheck.Test.make ~name:"request sizes positive and monotone in payload"
    ~count:100
    QCheck.(pair (int_range 0 2048) (int_range 0 2048))
    (fun (a, b) ->
      let size n = request_bytes (Swap { v = blk n; ntid = tid 0 0 1 }) in
      size a > 0 && (a <= b) = (size a <= size b))

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "proto",
    [
      t "tid compare" test_tid_compare;
      t "tid to_string" test_tid_to_string;
      t "mode strings" test_mode_strings;
      t "request sizes scale with block" test_request_sizes_scale_with_block;
      t "otid adds tid bytes" test_add_with_otid_larger;
      t "gc requests scale with tids" test_gc_requests_scale_with_tids;
      t "gc batch sizes" test_gc_many_bytes;
      t "response sizes" test_response_sizes;
      t "state view size" test_state_view_size;
      t "request tags distinct" test_tags_distinct;
      t "pp printers" test_pp_printers;
    ]
    @ List.map QCheck_alcotest.to_alcotest [ prop_request_bytes_positive ] )
