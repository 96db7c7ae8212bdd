(* Cross-checks of the optimized bulk coding kernels against the scalar
   reference, and unit tests for the block buffer pool.

   Every optimized kernel (word-sliced/table GF(2^8), split-table
   GF(2^16)) must agree bit-for-bit with [Kernel.Scalar] over its field
   on every operation, for random alphas and for lengths that exercise
   the word loop, the non-word tail (lengths not a multiple of 8) and
   the empty block. *)

let random_block rng len =
  Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256))

(* Lengths in symbols; converted to bytes per field so GF(2^16) blocks
   stay even while still producing byte lengths 2, 6, 10, 18... that
   are not multiples of 8 (the word-tail path). *)
let sym_lengths = [ 0; 1; 3; 4; 5; 7; 8; 9; 31; 32; 33; 511; 513 ]

let pairs : ((module Kernel.S) * (module Kernel.S)) list =
  [
    ((module Kernel.Scalar8), (module Kernel.Table8));
    ((module Kernel.Scalar16), (module Kernel.Split16));
  ]

let alphas_for h rng =
  let fs = 1 lsl h in
  [ 0; 1; fs - 1 ] @ List.init 24 (fun _ -> Random.State.int rng fs)

let check_agree name expect got =
  if not (Bytes.equal expect got) then
    Alcotest.failf "%s: optimized kernel disagrees with scalar reference" name

let cross_check (module R : Kernel.S) (module K : Kernel.S) () =
  Alcotest.(check int) "same field" R.h K.h;
  let rng = Random.State.make [| 0xCC; K.h |] in
  let sym = K.h / 8 in
  List.iter
    (fun syms ->
      let len = syms * sym in
      List.iter
        (fun alpha ->
          let tag op = Printf.sprintf "%s %s len=%d alpha=%d" K.name op len alpha in
          let src = random_block rng len and dst0 = random_block rng len in
          (* xor_into *)
          let a = Bytes.copy dst0 and b = Bytes.copy dst0 in
          R.xor_into ~dst:a ~src;
          K.xor_into ~dst:b ~src;
          check_agree (tag "xor_into") a b;
          (* scale_into *)
          let a = Bytes.copy dst0 and b = Bytes.copy dst0 in
          R.scale_into alpha ~dst:a ~src;
          K.scale_into alpha ~dst:b ~src;
          check_agree (tag "scale_into") a b;
          (* scale_xor_into *)
          let a = Bytes.copy dst0 and b = Bytes.copy dst0 in
          R.scale_xor_into alpha ~dst:a ~src;
          K.scale_xor_into alpha ~dst:b ~src;
          check_agree (tag "scale_xor_into") a b;
          (* delta_into (v, w fresh so dst contents don't matter) *)
          let v = random_block rng len and w = random_block rng len in
          let a = Bytes.copy dst0 and b = Bytes.copy dst0 in
          R.delta_into alpha ~dst:a ~v ~w;
          K.delta_into alpha ~dst:b ~v ~w;
          check_agree (tag "delta_into") a b;
          (* is_zero must agree too *)
          Alcotest.(check bool) (tag "is_zero") (R.is_zero a) (K.is_zero b);
          (* scaling anything by 0 must be recognisably zero *)
          let z = Bytes.copy dst0 in
          K.scale_into 0 ~dst:z ~src;
          Alcotest.(check bool) (tag "scale0") true (K.is_zero z))
        (alphas_for K.h rng))
    sym_lengths

(* In-place aliasing: delta_into with dst == v (the storage node applies
   deltas straight onto its live slot block). *)
let test_delta_aliasing () =
  List.iter
    (fun (module K : Kernel.S) ->
      let rng = Random.State.make [| 0xA1; K.h |] in
      let len = 24 * (K.h / 8) in
      let v = random_block rng len and w = random_block rng len in
      let alpha = 3 in
      let expect = Bytes.create len in
      K.delta_into alpha ~dst:expect ~v ~w;
      let dst = Bytes.copy v in
      K.delta_into alpha ~dst ~v:dst ~w;
      Alcotest.(check bytes) (K.name ^ " delta dst==v") expect dst)
    (List.map snd pairs)

(* In-place scale (dst == src), as delta_into uses it, across every
   word-tail length and a 64 KiB + 13 block. *)
let test_table8_scale_aliasing () =
  let rng = Random.State.make [| 0x5A |] in
  List.iter
    (fun len ->
      List.iter
        (fun alpha ->
          let src = random_block rng len in
          let expect = Bytes.create len in
          Kernel.Scalar8.scale_into alpha ~dst:expect ~src;
          let dst = Bytes.copy src in
          Kernel.Table8.scale_into alpha ~dst ~src:dst;
          check_agree
            (Printf.sprintf "table8 scale dst==src len=%d alpha=%d" len alpha)
            expect dst)
        [ 0; 1; 2; 0x53; 0xff ])
    (List.init 71 Fun.id @ [ 65549 ])

(* The word-sliced GF(2^8) kernels keep every int64 unboxed: no minor
   allocation per call on a 64 KiB block. *)
let test_table8_no_alloc () =
  let rng = Random.State.make [| 0xA0 |] in
  let len = 65536 in
  let dst = random_block rng len and src = random_block rng len in
  let v = random_block rng len and w = random_block rng len in
  let words f =
    let w0 = Stdlib.Gc.minor_words () in
    f ();
    Stdlib.Gc.minor_words () -. w0
  in
  List.iter
    (fun (op, f) ->
      f ();
      (* Subtract what reading the counter itself allocates. *)
      let per_call =
        (words (fun () ->
             for _ = 1 to 16 do
               f ()
             done)
        -. words ignore)
        /. 16.
      in
      if per_call <> 0. then
        Alcotest.failf "table8 %s: %.2f minor words per 64 KiB call" op
          per_call)
    [
      ("scale_into", fun () -> Kernel.Table8.scale_into 0x53 ~dst ~src);
      ("scale_xor_into", fun () -> Kernel.Table8.scale_xor_into 0x53 ~dst ~src);
      ("delta_into", fun () -> Kernel.Table8.delta_into 0x53 ~dst ~v ~w);
    ]

let test_length_guards () =
  Alcotest.check_raises "mismatched lengths"
    (Invalid_argument "Block_ops: blocks of different lengths") (fun () ->
      Kernel.Table8.xor_into ~dst:(Bytes.create 4) ~src:(Bytes.create 5));
  Alcotest.check_raises "split16 odd length"
    (Invalid_argument "Kernel.split16: block length not a multiple of 2")
    (fun () ->
      Kernel.Split16.scale_into 7 ~dst:(Bytes.create 3) ~src:(Bytes.create 3));
  Alcotest.check_raises "scalar16 odd length"
    (Invalid_argument "Kernel.scalar16: block length not a multiple of 2")
    (fun () ->
      Kernel.Scalar16.scale_into 7 ~dst:(Bytes.create 3) ~src:(Bytes.create 3))

let test_for_h () =
  let (module K8) = Kernel.for_h 8 in
  let (module K16) = Kernel.for_h 16 in
  Alcotest.(check string) "h=8 optimized" "table8" K8.name;
  Alcotest.(check string) "h=16 optimized" "split16" K16.name;
  Alcotest.check_raises "unsupported width"
    (Invalid_argument "Kernel.for_h: no kernel for GF(2^32)") (fun () ->
      ignore (Kernel.for_h 32))

(* --- qcheck: random alphas, lengths and contents ------------------- *)

let prop_matches_scalar ((module R : Kernel.S), (module K : Kernel.S)) =
  let sym = K.h / 8 in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s matches scalar on random inputs" K.name)
    ~count:300
    QCheck.(
      triple
        (int_range 0 ((1 lsl K.h) - 1))
        (int_range 0 65)
        (pair small_string small_string))
    (fun (alpha, syms, (s1, s2)) ->
      let len = syms * sym in
      let fill s =
        Bytes.init len (fun i ->
            if String.length s = 0 then Char.chr (i * 37 land 0xff)
            else s.[i mod String.length s])
      in
      let src = fill s1 and dst0 = fill s2 in
      let a = Bytes.copy dst0 and b = Bytes.copy dst0 in
      R.scale_xor_into alpha ~dst:a ~src;
      K.scale_xor_into alpha ~dst:b ~src;
      let d1 = Bytes.copy dst0 and d2 = Bytes.copy dst0 in
      R.delta_into alpha ~dst:d1 ~v:src ~w:dst0;
      K.delta_into alpha ~dst:d2 ~v:src ~w:dst0;
      Bytes.equal a b && Bytes.equal d1 d2)

(* --- buffer pool --------------------------------------------------- *)

let test_pool_roundtrip () =
  Buf_pool.reset ();
  let b = Buf_pool.get 64 in
  Alcotest.(check int) "length" 64 (Bytes.length b);
  Buf_pool.put b;
  let b' = Buf_pool.get 64 in
  Alcotest.(check bool) "recycled (physical equality)" true (b == b');
  let c = Buf_pool.get 64 in
  Alcotest.(check bool) "distinct while live" true (c != b');
  let s = Buf_pool.stats () in
  Alcotest.(check int) "gets" 3 s.Buf_pool.gets;
  Alcotest.(check int) "hits" 1 s.Buf_pool.hits;
  Alcotest.(check int) "misses" 2 s.Buf_pool.misses;
  Alcotest.(check int) "puts" 1 s.Buf_pool.puts

let test_pool_size_classes () =
  Buf_pool.reset ();
  let a = Buf_pool.get 16 and b = Buf_pool.get 32 in
  Buf_pool.put a;
  Buf_pool.put b;
  (* Exact-size classes: a 32-byte request never returns the 16-byte
     buffer. *)
  let b' = Buf_pool.get 32 in
  Alcotest.(check int) "exact size" 32 (Bytes.length b');
  Alcotest.(check bool) "right class" true (b == b');
  let z = Buf_pool.get 0 in
  Alcotest.(check int) "zero-length ok" 0 (Bytes.length z);
  Alcotest.check_raises "negative"
    (Invalid_argument "Buf_pool.get: negative length") (fun () ->
      ignore (Buf_pool.get (-1)))

let test_pool_lifo_and_bound () =
  Buf_pool.reset ();
  let a = Buf_pool.get 8 and b = Buf_pool.get 8 in
  Buf_pool.put a;
  Buf_pool.put b;
  (* LIFO: the most recently returned buffer comes back first, so
     replayed runs recycle deterministically. *)
  Alcotest.(check bool) "lifo" true (Buf_pool.get 8 == b);
  Alcotest.(check bool) "then the older one" true (Buf_pool.get 8 == a);
  Buf_pool.reset ();
  (* The per-class free list is bounded; surplus puts are dropped. *)
  let bufs = List.init 200 (fun _ -> Buf_pool.get 8) in
  List.iter Buf_pool.put bufs;
  let s = Buf_pool.stats () in
  Alcotest.(check int) "puts counted" 200 s.Buf_pool.puts;
  Alcotest.(check bool) "surplus dropped" true (s.Buf_pool.drops > 0);
  Buf_pool.reset ()

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "kernels",
    List.map
      (fun ((r, k) : (module Kernel.S) * (module Kernel.S)) ->
        let (module K) = k in
        t
          (Printf.sprintf "%s vs scalar (sweep incl. tails and len 0)" K.name)
          (cross_check r k))
      pairs
    @ [
        t "delta_into aliasing (dst == v)" test_delta_aliasing;
        t "table8 scale_into aliasing (dst == src)" test_table8_scale_aliasing;
        t "table8 kernels allocate nothing" test_table8_no_alloc;
        t "length guards" test_length_guards;
        t "for_h dispatch" test_for_h;
        t "pool get/put roundtrip" test_pool_roundtrip;
        t "pool size classes" test_pool_size_classes;
        t "pool LIFO order and bound" test_pool_lifo_and_bound;
      ]
    @ List.map QCheck_alcotest.to_alcotest
        (List.map prop_matches_scalar pairs) )
