(* Kernel microbenchmark: per-kernel MB/s and allocated-bytes-per-op
   for the four bulk coding operations (paper Fig 8a / Sec 5.1), over
   every kernel implementation — the scalar references and the
   optimized table kernels for GF(2^8) and GF(2^16) — and for the
   block integrity digest that sits beside them on every node RPC.

   This seeds the perf trajectory for the data plane: CI uploads the
   JSON and asserts the table kernels beat their scalar references
   (and that the optimized kernels are allocation-free in steady
   state).  MB/s counts source bytes processed; the two [rs] rows
   time rebuilding a lost stripe member and count its bytes. *)

let block_size = 65536

(* Iteration counts sized so each (kernel, op) cell runs for a fraction
   of a second: the scalar references are ~1-2 orders of magnitude
   slower than the table kernels. *)
let iters_for name = if String.length name >= 6 && String.sub name 0 6 = "scalar" then 192 else 2048

type cell = {
  kernel : string;
  h : int;
  op : string;
  iters : int;
  mb_per_s : float;
  alloc_bytes_per_op : int;
}

(* Time [iters] calls of [f] after one warm-up call (which builds any
   per-alpha tables outside the window). *)
let measure ~kernel ~h ~iters (op, f) =
  f ();
  let a0 = Bench_util.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  let t1 = Unix.gettimeofday () in
  let a1 = Bench_util.allocated_bytes () in
  let bytes = float_of_int (block_size * iters) in
  let mb_per_s = bytes /. (1024. *. 1024.) /. (t1 -. t0) in
  let alloc_bytes_per_op = int_of_float ((a1 -. a0) /. float_of_int iters) in
  { kernel; h; op; iters; mb_per_s; alloc_bytes_per_op }

let random_block st =
  Bytes.init block_size (fun _ -> Char.chr (Random.State.int st 256))

let bench_kernel (module K : Kernel.S) =
  let st = Random.State.make [| 0xBE2C; K.h |] in
  let dst = random_block st and src = random_block st in
  let v = random_block st and w = random_block st in
  (* A nontrivial alpha exercising both split-table halves at h = 16. *)
  let alpha = if K.h = 8 then 0x53 else 0x1c53 in
  List.map
    (measure ~kernel:K.name ~h:K.h ~iters:(iters_for K.name))
    [
      ("xor", fun () -> K.xor_into ~dst ~src);
      ("scale", fun () -> K.scale_into alpha ~dst ~src);
      ("scale_xor", fun () -> K.scale_xor_into alpha ~dst ~src);
      ("delta", fun () -> K.delta_into alpha ~dst ~v ~w);
    ]

(* The integrity digest every node pays on each block it serves or
   seals; not a field operation, so [h] is 0.  The one allocation per
   op is the boxed int64 result. *)
let bench_digest () =
  let b = random_block (Random.State.make [| 0xD16E |]) in
  measure ~kernel:"checksum" ~h:0 ~iters:2048
    ( "digest",
      fun () -> ignore (Sys.opaque_identity (Checksum.digest_bytes b)) )

(* Rebuilding one lost member of a k = 4, n = 6 stripe from the other
   five, as a rebuild does: [reconstruct_stripe] (the whole stripe,
   sources copied) beside [repair] of the lost block alone.  MB/s
   counts the lost member's bytes, so the two rows compare directly. *)
let bench_rebuild () =
  let code = Rs_code.create ~k:4 ~n:6 () in
  let st = Random.State.make [| 0x4E6 |] in
  let stripe = Rs_code.stripe code (Array.init 4 (fun _ -> random_block st)) in
  let avail = List.init 5 (fun p -> (p + 1, stripe.(p + 1))) in
  let wanted = [ 0 ] in
  if not (Bytes.equal (Rs_code.repair code avail ~wanted).(0) stripe.(0))
  then failwith "kernel bench: repair disagrees with the encoded stripe";
  let keep x = ignore (Sys.opaque_identity x) in
  List.map
    (measure ~kernel:"rs" ~h:8 ~iters:256)
    [
      ( "reconstruct_stripe",
        fun () -> keep (Rs_code.reconstruct_stripe code avail) );
      ("repair", fun () -> keep (Rs_code.repair code avail ~wanted));
    ]

let kernels : (module Kernel.S) list =
  [
    (module Kernel.Scalar8);
    (module Kernel.Table8);
    (module Kernel.Scalar16);
    (module Kernel.Split16);
  ]

let run ?json () =
  let cells =
    List.concat_map bench_kernel kernels @ (bench_digest () :: bench_rebuild ())
  in
  Printf.printf "kernel throughput, %d KiB blocks (MB/s; alloc B/op)\n"
    (block_size / 1024);
  Printf.printf "%-10s %4s %-18s %10s %10s\n" "kernel" "h" "op" "MB/s" "B/op";
  List.iter
    (fun c ->
      Printf.printf "%-10s %4d %-18s %10.1f %10d\n" c.kernel c.h c.op
        c.mb_per_s c.alloc_bytes_per_op)
    cells;
  (match json with
  | None -> ()
  | Some path ->
    let open Report in
    let doc =
      J_obj
        [
          ("block_size", J_int block_size);
          ( "results",
            J_arr
              (List.map
                 (fun c ->
                   J_obj
                     [
                       ("kernel", J_str c.kernel);
                       ("h", J_int c.h);
                       ("op", J_str c.op);
                       ("iters", J_int c.iters);
                       ("mb_per_s", J_float (c.mb_per_s, 1));
                       ("alloc_bytes_per_op", J_int c.alloc_bytes_per_op);
                     ])
                 cells) );
        ]
    in
    Report.write_file path doc;
    Printf.printf "wrote %s\n%!" path)
