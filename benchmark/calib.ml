(* Calibration microbenches for the traced run: each layer's unit of
   work timed alone at the workload's block size.  The storage numbers
   split a traced transport call into node service and handoff (mailbox,
   boundary copy, wake-up); the gf and rs numbers are the coding cost a
   write or a rebuild pays per block. *)

(* Mean nanoseconds per iteration of [f]. *)
let per_iter ~iters f =
  let t0 = Meter.now_ns () in
  for i = 0 to iters - 1 do
    f i
  done;
  float_of_int (Meter.now_ns () - t0) /. float_of_int iters

(* Enough iterations to move [bytes] of payload. *)
let iters ~bytes ~block_size = max 32 (bytes / block_size)

let gf ~bytes ~block_size =
  let (module K : Kernel.S) = Kernel.for_h 8 in
  let st = Random.State.make [| block_size |] in
  let src = Block_ops.random st block_size in
  let v = Block_ops.random st block_size in
  let w = Block_ops.random st block_size in
  let dst = Bytes.make block_size '\000' in
  let alphas = [| 2; 29; 113; 200 |] in
  (* Per-alpha product tables are built on first use: fill them first. *)
  Array.iter
    (fun a ->
      K.scale_xor_into a ~dst ~src;
      K.delta_into a ~dst ~v ~w)
    alphas;
  let iters = iters ~bytes ~block_size in
  let mb_per_s ns = float_of_int block_size /. Meter.mib /. (ns *. 1e-9) in
  let a0 = Stdlib.Gc.allocated_bytes () in
  let sx =
    per_iter ~iters (fun i -> K.scale_xor_into alphas.(i land 3) ~dst ~src)
  in
  let de =
    per_iter ~iters (fun i -> K.delta_into alphas.(i land 3) ~dst ~v ~w)
  in
  let xo = per_iter ~iters (fun _ -> K.xor_into ~dst ~src) in
  let alloc = Stdlib.Gc.allocated_bytes () -. a0 in
  [
    ("gf.scale_xor_mb_per_s", mb_per_s sx);
    ("gf.delta_mb_per_s", mb_per_s de);
    ("gf.xor_mb_per_s", mb_per_s xo);
    ("gf.alloc_bytes_per_op", alloc /. float_of_int (3 * iters));
  ]

(* RS at the benchmark's k = 4, n = 6.  Decode and reconstruct lose data
   position 0, as a rebuild of that member would; both results are
   checked against the original stripe. *)
let rs ledger ~bytes ~block_size =
  let k = 4 and n = 6 in
  let code = Rs_code.create ~k ~n () in
  let st = Random.State.make [| block_size; 1 |] in
  let data = Array.init k (fun _ -> Block_ops.random st block_size) in
  let stripe = Rs_code.stripe code data in
  let diff = Block_ops.random st block_size in
  let dst = Bytes.create block_size in
  let from count = List.init count (fun p -> (p + 1, stripe.(p + 1))) in
  let decode_from = from k and rebuild_from = from (n - 1) in
  let iters = iters ~bytes ~block_size in
  let upd =
    per_iter ~iters (fun i ->
        Rs_code.update_delta_into code ~j:(k + (i land 1)) ~i:(i land 3) ~dst
          ~diff)
  in
  let decoded = ref [||] and rebuilt = ref [||] in
  let dec =
    per_iter ~iters:(iters / 4) (fun _ ->
        decoded := Rs_code.decode code decode_from)
  in
  let recons =
    per_iter ~iters:(iters / 4) (fun _ ->
        rebuilt := Rs_code.reconstruct_stripe code rebuild_from)
  in
  Result.expect ledger
    (Array.for_all2 Bytes.equal !decoded data
    && Array.for_all2 Bytes.equal !rebuilt stripe)
    "rs calibration: decode disagrees with the encoded stripe";
  [
    ("rs.update_delta_us", upd *. 1e-3);
    ("rs.decode_us", dec *. 1e-3);
    ("rs.reconstruct_us", recons *. 1e-3);
  ]

(* Storage_node.handle on a bench-local node.  Data slots 0-7 take
   swaps and reads, redundant slots 8-15 take adds; each write's tid is
   garbage-collected right after, so list lengths stay as short as in a
   steadily collected cluster. *)
let storage ledger ~bytes ~block_size =
  let node =
    Storage_node.create ~h:8 ~now:(fun () -> 0.) ~block_size ~init:`Zeroed ()
  in
  let st = Random.State.make [| block_size; 2 |] in
  let v = Block_ops.random st block_size in
  let dv = Block_ops.random st block_size in
  let names = [| "read"; "swap"; "add"; "get_state"; "gc_recent" |] in
  let total = Array.make (Array.length names) 0 in
  let handle ~slot req = Storage_node.handle node ~caller:1 ~slot req in
  let timed i ~slot req =
    let t0 = Meter.now_ns () in
    let r = handle ~slot req in
    total.(i) <- total.(i) + (Meter.now_ns () - t0);
    r
  in
  let ok = ref true in
  let expect b = if not b then ok := false in
  let iters = iters ~bytes ~block_size in
  for i = 0 to iters - 1 do
    let ds = i land 7 and rs = 8 + (i land 7) in
    let wtid = { Proto.seq = i; blk = 0; client = 1 } in
    let atid = { Proto.seq = i; blk = 1; client = 1 } in
    (match timed 0 ~slot:ds Proto.Read with
    | Proto.R_read { block = Some _; _ } -> ()
    | _ -> expect false);
    (match timed 1 ~slot:ds (Proto.Swap { v; ntid = wtid }) with
    | Proto.R_swap { block = Some _; _ } -> ()
    | _ -> expect false);
    (match
       timed 2 ~slot:rs (Proto.Add { dv; ntid = atid; otid = None; epoch = 0 })
     with
    | Proto.R_add { status = Proto.Add_ok; _ } -> ()
    | _ -> expect false);
    (match timed 3 ~slot:(i land 15) Proto.Get_state with
    | Proto.R_state { Proto.st_block = Some _; _ } -> ()
    | _ -> expect false);
    (match timed 4 ~slot:ds (Proto.Gc_recent [ wtid ]) with
    | Proto.R_gc { ok = true } -> ()
    | _ -> expect false);
    ignore (handle ~slot:rs (Proto.Gc_recent [ atid ]));
    ignore (handle ~slot:ds (Proto.Gc_old [ wtid ]));
    ignore (handle ~slot:rs (Proto.Gc_old [ atid ]))
  done;
  Result.expect ledger !ok "storage calibration: unexpected node response";
  Array.to_list
    (Array.mapi
       (fun i name ->
         ( "storage." ^ name ^ "_us",
           float_of_int total.(i) /. float_of_int iters *. 1e-3 ))
       names)

(* Every calibration metric, by its per-layer name.  A quick run moves
   a sixty-fourth of the payload. *)
let run ~quick ledger ~block_size =
  let mib = if quick then 1024 * 1024 / 64 else 1024 * 1024 in
  gf ~bytes:(32 * mib) ~block_size
  @ rs ledger ~bytes:(8 * mib) ~block_size
  @ storage ledger ~bytes:(8 * mib) ~block_size
