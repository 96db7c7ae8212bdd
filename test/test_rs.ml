(* Tests for GF(2^8) matrices and systematic Reed-Solomon codes. *)

let random_block len = Bytes.init len (fun _ -> Char.chr (Random.int 256))

(* --- Matrix -------------------------------------------------------- *)

let test_identity_mul () =
  let m =
    Matrix.init ~rows:4 ~cols:4 (fun r c -> ((r * 7) + (c * 3) + 1) land 0xff)
  in
  Alcotest.(check bool) "I*m = m" true (Matrix.equal (Matrix.mul (Matrix.identity 4) m) m);
  Alcotest.(check bool) "m*I = m" true (Matrix.equal (Matrix.mul m (Matrix.identity 4)) m)

let test_invert_roundtrip () =
  for trial = 0 to 20 do
    let n = 1 + (trial mod 8) in
    (* Random Vandermonde-derived matrices are invertible. *)
    let v = Matrix.vandermonde ~rows:(n + 3) ~cols:n in
    let rows =
      List.init n (fun i -> (i * 2) mod (n + 3)) |> List.sort_uniq compare
    in
    let rows =
      if List.length rows = n then rows else List.init n Fun.id
    in
    let m = Matrix.submatrix_rows v rows in
    let inv = Matrix.invert m in
    Alcotest.(check bool)
      (Printf.sprintf "m * m^-1 = I (n=%d)" n)
      true
      (Matrix.equal (Matrix.mul m inv) (Matrix.identity n))
  done

let test_invert_singular () =
  let m = Matrix.make ~rows:3 ~cols:3 in
  Matrix.set m 0 0 1;
  Matrix.set m 1 1 1;
  (* third row all zeros: singular *)
  Alcotest.check_raises "singular" (Failure "Matrix.invert: singular matrix")
    (fun () -> ignore (Matrix.invert m))

let test_invert_not_square () =
  Alcotest.check_raises "not square"
    (Invalid_argument "Matrix.invert: not square") (fun () ->
      ignore (Matrix.invert (Matrix.make ~rows:2 ~cols:3)))

let test_mul_vec () =
  let m = Matrix.init ~rows:2 ~cols:3 (fun r c -> r + c + 1) in
  let v = [| 1; 2; 3 |] in
  let r = Matrix.mul_vec m v in
  let expect i =
    let acc = ref 0 in
    for c = 0 to 2 do
      acc := Gf256.add !acc (Gf256.mul (Matrix.get m i c) v.(c))
    done;
    !acc
  in
  Alcotest.(check int) "row 0" (expect 0) r.(0);
  Alcotest.(check int) "row 1" (expect 1) r.(1)

let test_vandermonde_mds () =
  (* Any k rows of an n x k Vandermonde matrix (n <= 255) are
     invertible: spot-check many row subsets. *)
  let k = 4 and n = 12 in
  let v = Matrix.vandermonde ~rows:n ~cols:k in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 50 do
    let rows = ref [] in
    while List.length !rows < k do
      let r = Random.State.int rng n in
      if not (List.mem r !rows) then rows := r :: !rows
    done;
    let sub = Matrix.submatrix_rows v (List.sort compare !rows) in
    ignore (Matrix.invert sub)
  done

(* --- Rs_code ------------------------------------------------------- *)

let test_create_validation () =
  Alcotest.check_raises "k=0" (Invalid_argument "Rs_code.create: need 1 <= k < n <= 255")
    (fun () -> ignore (Rs_code.create ~k:0 ~n:4 ()));
  Alcotest.check_raises "n<=k" (Invalid_argument "Rs_code.create: need 1 <= k < n <= 255")
    (fun () -> ignore (Rs_code.create ~k:4 ~n:4 ()));
  Alcotest.check_raises "n>255" (Invalid_argument "Rs_code.create: need 1 <= k < n <= 255")
    (fun () -> ignore (Rs_code.create ~k:4 ~n:256 ()))

let test_systematic () =
  (* Data blocks appear verbatim in the stripe. *)
  let code = Rs_code.create ~k:3 ~n:6 () in
  let data = Array.init 3 (fun _ -> random_block 64) in
  let stripe = Rs_code.stripe code data in
  for i = 0 to 2 do
    Alcotest.(check bytes) (Printf.sprintf "data %d" i) data.(i) stripe.(i)
  done

let test_any_k_decode () =
  let code = Rs_code.create ~k:3 ~n:6 () in
  let data = Array.init 3 (fun _ -> random_block 128) in
  let stripe = Rs_code.stripe code data in
  (* All 20 subsets of size 3 from 6 blocks must reconstruct. *)
  let rec subsets k from =
    if k = 0 then [ [] ]
    else
      match from with
      | [] -> []
      | x :: rest ->
        List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest
  in
  List.iter
    (fun subset ->
      let avail = List.map (fun i -> (i, stripe.(i))) subset in
      let decoded = Rs_code.decode code avail in
      for i = 0 to 2 do
        Alcotest.(check bytes)
          (Printf.sprintf "subset %s block %d"
             (String.concat "," (List.map string_of_int subset))
             i)
          data.(i) decoded.(i)
      done)
    (subsets 3 [ 0; 1; 2; 3; 4; 5 ])

let test_decode_too_few () =
  let code = Rs_code.create ~k:3 ~n:5 () in
  let data = Array.init 3 (fun _ -> random_block 16) in
  let stripe = Rs_code.stripe code data in
  Alcotest.check_raises "too few"
    (Invalid_argument "Rs_code.decode: fewer than k distinct blocks")
    (fun () -> ignore (Rs_code.decode code [ (0, stripe.(0)); (1, stripe.(1)) ]))

let test_decode_duplicate_indices () =
  let code = Rs_code.create ~k:2 ~n:4 () in
  let data = Array.init 2 (fun _ -> random_block 16) in
  let stripe = Rs_code.stripe code data in
  (* Duplicates of the same index don't count twice. *)
  Alcotest.check_raises "dup"
    (Invalid_argument "Rs_code.decode: fewer than k distinct blocks")
    (fun () ->
      ignore (Rs_code.decode code [ (3, stripe.(3)); (3, stripe.(3)) ]));
  let ok =
    Rs_code.decode code [ (3, stripe.(3)); (3, stripe.(3)); (0, stripe.(0)) ]
  in
  Alcotest.(check bytes) "with one more" data.(1) ok.(1)

let test_reconstruct_stripe () =
  let code = Rs_code.create ~k:4 ~n:7 () in
  let data = Array.init 4 (fun _ -> random_block 100) in
  let stripe = Rs_code.stripe code data in
  let avail = [ (6, stripe.(6)); (2, stripe.(2)); (4, stripe.(4)); (1, stripe.(1)) ] in
  let rebuilt = Rs_code.reconstruct_stripe code avail in
  for i = 0 to 6 do
    Alcotest.(check bytes) (Printf.sprintf "block %d" i) stripe.(i) rebuilt.(i)
  done

(* --- repair: exhaustive over available and wanted sets ------------- *)

(* Every subset of [0, n), each in increasing order. *)
let all_subsets n =
  List.init (1 lsl n) (fun m ->
      List.filter (fun i -> m land (1 lsl i) <> 0) (List.init n Fun.id))

(* One available set of [code]'s stripe.  The sources are the first k
   positions of the set; the available blocks after them are garbage,
   so a wanted position among them is right only because repair
   computes it rather than echoing its bytes. *)
let check_avail ~name ~block ~subsets code data stripe avail_set =
  let k = Rs_code.k code in
  let tag = String.concat "," (List.map string_of_int avail_set) in
  let avail =
    List.mapi (fun r p -> (p, if r < k then stripe.(p) else block ())) avail_set
  in
  List.iter
    (fun wanted ->
      let got = Rs_code.repair code avail ~wanted in
      List.iteri
        (fun r j ->
          if not (Bytes.equal got.(r) stripe.(j)) then
            Alcotest.failf "%s avail {%s}: repair of %d" name tag j)
        wanted)
    subsets;
  let decoded = Rs_code.decode code avail in
  if not (Array.for_all2 Bytes.equal data decoded) then
    Alcotest.failf "%s avail {%s}: decode" name tag;
  let rebuilt = Rs_code.reconstruct_stripe code avail in
  if not (Array.for_all2 Bytes.equal stripe rebuilt) then
    Alcotest.failf "%s avail {%s}: reconstruct_stripe" name tag

(* Off-codeword sources: decode must return the unique data whose
   stripe passes through them (what inverting and multiplying gave
   before repair existed), and reconstruct_stripe that stripe, with
   the sources copied. *)
let check_off_codeword ~name ~block code avail_set =
  let tag = String.concat "," (List.map string_of_int avail_set) in
  let off = List.map (fun p -> (p, block ())) avail_set in
  let through = Rs_code.stripe code (Rs_code.decode code off) in
  let rebuilt = Rs_code.reconstruct_stripe code off in
  if not (Array.for_all2 Bytes.equal through rebuilt) then
    Alcotest.failf "%s off-codeword {%s}: wrappers differ" name tag;
  List.iter
    (fun (p, b) ->
      if not (Bytes.equal b rebuilt.(p)) then
        Alcotest.failf "%s off-codeword {%s}: source %d" name tag p)
    off

let test_repair_exhaustive () =
  let rng = Random.State.make [| 0x5EED |] in
  (* 38 bytes: even for GF(2^16), with a 6-byte word tail. *)
  let block () = Bytes.init 38 (fun _ -> Char.chr (Random.State.int rng 256)) in
  List.iter
    (fun (field, construction, (k, n)) ->
      let code = Rs_code.create ~construction ~field ~k ~n () in
      let name =
        Printf.sprintf "h=%d %s k=%d n=%d" (Rs_code.h code)
          (match construction with
          | `Vandermonde -> "vandermonde"
          | `Cauchy -> "cauchy")
          k n
      in
      let data = Array.init k (fun _ -> block ()) in
      let stripe = Rs_code.stripe code data in
      let subsets = all_subsets n in
      List.iter
        (fun avail_set ->
          let size = List.length avail_set in
          if size >= k then
            check_avail ~name ~block ~subsets code data stripe avail_set;
          if size = k then check_off_codeword ~name ~block code avail_set)
        subsets)
    (List.concat_map
       (fun field ->
         List.concat_map
           (fun construction ->
             List.map
               (fun kn -> (field, construction, kn))
               [ (3, 5); (4, 6); (8, 10) ])
           [ `Vandermonde; `Cauchy ])
       [ `Gf8; `Gf16 ])

let test_repair_invalid () =
  let code = Rs_code.create ~k:3 ~n:5 () in
  let stripe = Rs_code.stripe code (Array.init 3 (fun _ -> random_block 16)) in
  let avail = List.init 3 (fun p -> (p, stripe.(p))) in
  Alcotest.check_raises "too few"
    (Invalid_argument "Rs_code.repair: fewer than k distinct blocks")
    (fun () ->
      let dup = [ (0, stripe.(0)); (0, stripe.(0)); (1, stripe.(1)) ] in
      ignore (Rs_code.repair code dup ~wanted:[ 4 ]));
  Alcotest.check_raises "bad source index"
    (Invalid_argument "Rs_code.repair: bad index") (fun () ->
      ignore (Rs_code.repair code ((5, stripe.(0)) :: avail) ~wanted:[ 4 ]));
  Alcotest.check_raises "bad wanted index"
    (Invalid_argument "Rs_code.repair: bad index") (fun () ->
      ignore (Rs_code.repair code avail ~wanted:[ 5 ]));
  Alcotest.check_raises "decode bad index"
    (Invalid_argument "Rs_code.decode: bad index") (fun () ->
      let bad = (-1, stripe.(0)) :: List.tl avail in
      ignore (Rs_code.decode code bad))

let test_delta_update_equals_reencode () =
  (* The protocol's core algebraic fact (Fig 3): applying
     alpha_ji*(v - w) to each redundant block equals re-encoding with the
     data block replaced. *)
  let code = Rs_code.create ~k:4 ~n:7 () in
  let data = Array.init 4 (fun _ -> random_block 256) in
  let redundant = Rs_code.encode code data in
  let i = 2 in
  let v = random_block 256 in
  for r = 0 to 2 do
    let j = 4 + r in
    let delta = Rs_code.update_delta code ~j ~i ~v ~w:data.(i) in
    Rs_code.apply_update ~redundant:redundant.(r) ~delta
  done;
  let data' = Array.copy data in
  data'.(i) <- v;
  let expect = Rs_code.encode code data' in
  for r = 0 to 2 do
    Alcotest.(check bytes) (Printf.sprintf "redundant %d" r) expect.(r)
      redundant.(r)
  done

let test_concurrent_updates_commute () =
  (* Fig 3(C): two writers updating different data blocks, their adds
     interleaved arbitrarily, end in the consistent stripe. *)
  let code = Rs_code.create ~k:2 ~n:4 () in
  let a = random_block 32 and b = random_block 32 in
  let redundant = Rs_code.encode code [| a; b |] in
  let c = random_block 32 and d = random_block 32 in
  let d1 j = Rs_code.update_delta code ~j ~i:0 ~v:c ~w:a in
  let d2 j = Rs_code.update_delta code ~j ~i:1 ~v:d ~w:b in
  (* Interleave: writer2 hits node 2 first, writer1 hits node 3 first. *)
  Rs_code.apply_update ~redundant:redundant.(0) ~delta:(d2 2);
  Rs_code.apply_update ~redundant:redundant.(1) ~delta:(d1 3);
  Rs_code.apply_update ~redundant:redundant.(0) ~delta:(d1 2);
  Rs_code.apply_update ~redundant:redundant.(1) ~delta:(d2 3);
  let expect = Rs_code.encode code [| c; d |] in
  Alcotest.(check bytes) "node2" expect.(0) redundant.(0);
  Alcotest.(check bytes) "node3" expect.(1) redundant.(1)

let test_verify_stripe () =
  let code = Rs_code.create ~k:2 ~n:4 () in
  let data = Array.init 2 (fun _ -> random_block 32) in
  let stripe = Rs_code.stripe code data in
  Alcotest.(check bool) "valid" true (Rs_code.verify_stripe code stripe);
  Bytes.set stripe.(3) 0
    (Char.chr (Char.code (Bytes.get stripe.(3) 0) lxor 1));
  Alcotest.(check bool) "corrupted" false (Rs_code.verify_stripe code stripe)

let test_alpha_bounds () =
  let code = Rs_code.create ~k:3 ~n:5 () in
  Alcotest.check_raises "j too small" (Invalid_argument "Rs_code.alpha: j not redundant")
    (fun () -> ignore (Rs_code.alpha code ~j:2 ~i:0));
  Alcotest.check_raises "i bad" (Invalid_argument "Rs_code.alpha: bad data index")
    (fun () -> ignore (Rs_code.alpha code ~j:3 ~i:3))

let test_alpha_nonzero () =
  (* MDS systematic codes have wholly nonzero coefficient rows: a zero
     alpha would mean a redundant block ignores some data block and a
     2-erasure pattern would be unrecoverable. *)
  List.iter
    (fun (k, n) ->
      let code = Rs_code.create ~k ~n () in
      for j = k to n - 1 do
        for i = 0 to k - 1 do
          if Rs_code.alpha code ~j ~i = 0 then
            Alcotest.failf "alpha(%d,%d) = 0 for %d-of-%d" j i k n
        done
      done)
    [ (2, 4); (3, 5); (4, 7); (8, 12); (16, 20) ]

let test_large_code () =
  (* The paper's "highly efficient" regime: large k, small p. *)
  let code = Rs_code.create ~k:16 ~n:20 () in
  let data = Array.init 16 (fun _ -> random_block 64) in
  let stripe = Rs_code.stripe code data in
  (* Drop 4 arbitrary blocks, reconstruct. *)
  let avail =
    List.filteri (fun idx _ -> not (List.mem idx [ 0; 5; 17; 19 ]))
      (Array.to_list (Array.mapi (fun i b -> (i, b)) stripe))
  in
  let decoded = Rs_code.decode code avail in
  for i = 0 to 15 do
    Alcotest.(check bytes) (Printf.sprintf "block %d" i) data.(i) decoded.(i)
  done

(* --- Cauchy construction ------------------------------------------- *)

let test_cauchy_submatrices_invertible () =
  (* Every square submatrix of a Cauchy matrix is nonsingular. *)
  let m = Matrix.cauchy ~rows:6 ~cols:4 in
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 40 do
    let size = 1 + Random.State.int rng 4 in
    let pick bound =
      let rec go acc =
        if List.length acc = size then List.sort compare acc
        else
          let x = Random.State.int rng bound in
          if List.mem x acc then go acc else go (x :: acc)
      in
      go []
    in
    let rows = pick 6 and cols = pick 4 in
    let sub =
      Matrix.init ~rows:size ~cols:size (fun r c ->
          Matrix.get m (List.nth rows r) (List.nth cols c))
    in
    ignore (Matrix.invert sub)
  done

let test_cauchy_bounds () =
  Alcotest.check_raises "too big"
    (Invalid_argument "Matrix.cauchy: rows + cols > 256") (fun () ->
      ignore (Matrix.cauchy ~rows:200 ~cols:100))

let test_cauchy_code_roundtrip () =
  let code = Rs_code.create ~construction:`Cauchy ~k:4 ~n:7 () in
  Alcotest.(check bool) "construction recorded" true
    (Rs_code.construction code = `Cauchy);
  let data = Array.init 4 (fun _ -> random_block 64) in
  let stripe = Rs_code.stripe code data in
  for i = 0 to 3 do
    Alcotest.(check bytes) (Printf.sprintf "data %d" i) data.(i) stripe.(i)
  done;
  let avail = [ (1, stripe.(1)); (4, stripe.(4)); (5, stripe.(5)); (6, stripe.(6)) ] in
  let decoded = Rs_code.decode code avail in
  for i = 0 to 3 do
    Alcotest.(check bytes) (Printf.sprintf "decoded %d" i) data.(i) decoded.(i)
  done

let test_cauchy_delta_update () =
  let code = Rs_code.create ~construction:`Cauchy ~k:3 ~n:5 () in
  let data = Array.init 3 (fun _ -> random_block 48) in
  let redundant = Rs_code.encode code data in
  let v = random_block 48 in
  for r = 0 to 1 do
    let delta = Rs_code.update_delta code ~j:(3 + r) ~i:1 ~v ~w:data.(1) in
    Rs_code.apply_update ~redundant:redundant.(r) ~delta
  done;
  data.(1) <- v;
  let expect = Rs_code.encode code data in
  for r = 0 to 1 do
    Alcotest.(check bytes) (Printf.sprintf "redundant %d" r) expect.(r)
      redundant.(r)
  done

let test_constructions_differ () =
  (* A regression guard that the construction option is honoured. *)
  let v = Rs_code.create ~construction:`Vandermonde ~k:3 ~n:5 () in
  let c = Rs_code.create ~construction:`Cauchy ~k:3 ~n:5 () in
  let differs = ref false in
  for j = 3 to 4 do
    for i = 0 to 2 do
      if Rs_code.alpha v ~j ~i <> Rs_code.alpha c ~j ~i then differs := true
    done
  done;
  Alcotest.(check bool) "coefficient sets differ" true !differs

let prop_cauchy_mds =
  QCheck.Test.make ~name:"cauchy codes decode from any k blocks" ~count:40
    QCheck.(pair (int_range 2 8) (int_range 1 4))
    (fun (k, p) ->
      let n = k + p in
      let code = Rs_code.create ~construction:`Cauchy ~k ~n () in
      let rng = Random.State.make [| (k * 131) + p |] in
      let data =
        Array.init k (fun _ ->
            Bytes.init 24 (fun _ -> Char.chr (Random.State.int rng 256)))
      in
      let stripe = Rs_code.stripe code data in
      let shuffled =
        List.sort
          (fun _ _ -> if Random.State.bool rng then 1 else -1)
          (Array.to_list (Array.mapi (fun i b -> (i, b)) stripe))
      in
      let avail = List.filteri (fun idx _ -> idx < k) shuffled in
      Array.for_all2 Bytes.equal data (Rs_code.decode code avail))

(* --- qcheck -------------------------------------------------------- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"rs decode inverts encode" ~count:60
    QCheck.(pair (int_range 2 8) (int_range 1 4))
    (fun (k, p) ->
      let n = k + p in
      if n > 255 then true
      else begin
        let code = Rs_code.create ~k ~n () in
        let rng = Random.State.make [| (k * 31) + p |] in
        let data =
          Array.init k (fun _ ->
              Bytes.init 24 (fun _ -> Char.chr (Random.State.int rng 256)))
        in
        let stripe = Rs_code.stripe code data in
        (* Erase p random blocks. *)
        let alive =
          Array.to_list (Array.mapi (fun i b -> (i, b)) stripe)
          |> List.filter (fun _ -> true)
        in
        let shuffled =
          List.sort (fun _ _ -> if Random.State.bool rng then 1 else -1) alive
        in
        let avail = List.filteri (fun idx _ -> idx < k) shuffled in
        let decoded = Rs_code.decode code avail in
        Array.for_all2 Bytes.equal data decoded
      end)

let prop_single_delta =
  QCheck.Test.make ~name:"single-block delta update = re-encode" ~count:60
    QCheck.(triple (int_range 2 6) (int_range 1 3) small_nat)
    (fun (k, p, seed) ->
      let n = k + p in
      let code = Rs_code.create ~k ~n () in
      let rng = Random.State.make [| seed |] in
      let blk () = Bytes.init 16 (fun _ -> Char.chr (Random.State.int rng 256)) in
      let data = Array.init k (fun _ -> blk ()) in
      let redundant = Rs_code.encode code data in
      let i = Random.State.int rng k in
      let v = blk () in
      for r = 0 to p - 1 do
        let delta = Rs_code.update_delta code ~j:(k + r) ~i ~v ~w:data.(i) in
        Rs_code.apply_update ~redundant:redundant.(r) ~delta
      done;
      data.(i) <- v;
      let expect = Rs_code.encode code data in
      Array.for_all2 Bytes.equal expect redundant)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "rs_code",
    [
      t "matrix identity mul" test_identity_mul;
      t "matrix invert roundtrip" test_invert_roundtrip;
      t "matrix invert singular" test_invert_singular;
      t "matrix invert not square" test_invert_not_square;
      t "matrix mul_vec" test_mul_vec;
      t "vandermonde subsets invertible" test_vandermonde_mds;
      t "create validation" test_create_validation;
      t "systematic" test_systematic;
      t "any k of n decode (exhaustive 3-of-6)" test_any_k_decode;
      t "decode with too few blocks" test_decode_too_few;
      t "decode ignores duplicate indices" test_decode_duplicate_indices;
      t "reconstruct full stripe" test_reconstruct_stripe;
      t "repair: every available and wanted set (3/5, 4/6, 8/10)"
        test_repair_exhaustive;
      t "repair rejects too few blocks and bad indices" test_repair_invalid;
      t "delta update equals re-encode" test_delta_update_equals_reencode;
      t "concurrent updates commute (Fig 3C)" test_concurrent_updates_commute;
      t "verify_stripe" test_verify_stripe;
      t "alpha bounds" test_alpha_bounds;
      t "alpha coefficients nonzero" test_alpha_nonzero;
      t "16-of-20 code" test_large_code;
      t "cauchy submatrices invertible" test_cauchy_submatrices_invertible;
      t "cauchy bounds" test_cauchy_bounds;
      t "cauchy code roundtrip" test_cauchy_code_roundtrip;
      t "cauchy delta update" test_cauchy_delta_update;
      t "constructions differ" test_constructions_differ;
    ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_roundtrip; prop_single_delta; prop_cauchy_mds ]
  )
