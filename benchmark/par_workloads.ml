(* The three workloads that drive the real stack: one closed-loop client
   on the main domain with one operation outstanding, over a [Par_env]
   with one storage-worker domain and no pfor pool (two domains in all,
   sized for a 2-core host) and no modelled service time, so every
   number is CPU cost.  Configuration: k = 4, n = 6, GF(2^8), rotation
   on.  The client is built the way [Par_env.make_client] builds it. *)

let k = 4
let n = 6

(* A real client collects garbage as it goes; GC rounds are timed apart
   from write latency but fall inside the throughput window. *)
let gc_every = 64
let warmup_s = 1.0
let setup_reps = 3

(* A quick run ([dune runtest]) checks every code path and every metric
   name at a sixteenth of each workload's size, with one set-up and no
   warm-up. *)
let quick_divisor = 16

type shape = {
  name : string;
  block_size : int;
  blocks : int;
  write_frac : float;
}

let small_mixed =
  { name = "small-mixed"; block_size = 4096; blocks = 4096; write_frac = 0.3 }

let large_write =
  { name = "large-write"; block_size = 65536; blocks = 512; write_frac = 1.0 }

let rebuild =
  { name = "rebuild"; block_size = 65536; blocks = 64 * k; write_frac = 0. }

let all = [ small_mixed; large_write; rebuild ]
let stripes shape = shape.blocks / k
let is_rebuild shape = shape.name = rebuild.name

(* ------------------------------------------------------------------ *)
(* Block contents.  Every write fills its block with words derived from
   (block, version); the shadow [versions] array says which version a
   read must return, so every read is checked byte for byte. *)

let word ~block ~version =
  (block * 0x2545F4914F6CDD1D) lxor (version * 0x1E3779B97F4A7C15) lor 1

let step = 0x100000001B3

let fill buf ~block ~version =
  let base = word ~block ~version in
  for j = 0 to (Bytes.length buf / 8) - 1 do
    Bytes.set_int64_le buf (8 * j) (Int64.of_int (base + (j * step)))
  done

let matches buf ~block_size ~block ~version =
  let base = word ~block ~version in
  let rec from j =
    j < 0
    || Int64.equal
         (Bytes.get_int64_le buf (8 * j))
         (Int64.of_int (base + (j * step)))
       && from (j - 1)
  in
  Bytes.length buf = block_size && from ((block_size / 8) - 1)

(* ------------------------------------------------------------------ *)

type rig = {
  shape : shape;
  env : Par_env.t;
  layout : Layout.t;
  code : Rs_code.t;
  client : Client.t;
  versions : int array;  (** -1: a failed write left the block unknown *)
  buf : bytes;
  tracer : Tracer.t option;
  ledger : Result.ledger;
  mutable writes : int;
}

let create_rig ?tracer ledger shape =
  let cfg = Config.make ~t_p:1 ~block_size:shape.block_size ~k ~n () in
  let env = Par_env.create ~workers:1 ~pfor_workers:0 cfg in
  let layout = Layout.create ~k ~n () in
  let code = Rs_code.create ~field:cfg.Config.field ~k ~n () in
  let transport = Par_env.transport env ~id:1 in
  let transport, sink =
    match tracer with
    | None -> (transport, None)
    | Some t -> (Tracer.wrap t transport, Some (Tracer.sink t))
  in
  let client =
    Client.of_transport ?sink
      ~locate:(fun ~slot ~pos -> Layout.node_of layout ~stripe:slot ~pos)
      cfg code transport
  in
  {
    shape;
    env;
    layout;
    code;
    client;
    versions = Array.make shape.blocks 0;
    buf = Bytes.create shape.block_size;
    tracer;
    ledger;
    writes = 0;
  }

let begin_op rig =
  (match rig.tracer with
  | Some t when t.Tracer.enabled -> Tracer.op_begin t
  | _ -> ());
  Meter.now_ns ()

let end_op rig op t0 =
  let t1 = Meter.now_ns () in
  (match rig.tracer with
  | Some t when t.Tracer.enabled -> Tracer.op_end t op ~t0 ~t1
  | _ -> ());
  t1 - t0

(* Each operation returns its latency in ns, or -1 when it failed (the
   failure is in the ledger). *)

let write rig b ~version =
  let slot, i = Layout.stripe_of_block rig.layout b in
  fill rig.buf ~block:b ~version;
  Result.attempt rig.ledger;
  let t0 = begin_op rig in
  match Client.write rig.client ~slot ~i rig.buf with
  | () ->
    let lat = end_op rig Tracer.Op_write t0 in
    rig.versions.(b) <- version;
    rig.writes <- rig.writes + 1;
    lat
  | exception
      (Client.Stuck m | Client.Data_loss m | Client.Write_abandoned m) ->
    rig.versions.(b) <- -1;
    Result.fail rig.ledger (Printf.sprintf "write of block %d: %s" b m);
    -1

let read rig b =
  let slot, i = Layout.stripe_of_block rig.layout b in
  Result.attempt rig.ledger;
  let t0 = begin_op rig in
  match Client.read rig.client ~slot ~i with
  | data ->
    let lat = end_op rig Tracer.Op_read t0 in
    let version = rig.versions.(b) in
    let block_size = rig.shape.block_size in
    if version < 0 || matches data ~block_size ~block:b ~version then lat
    else begin
      Result.fail rig.ledger (Printf.sprintf "read of block %d: wrong bytes" b);
      -1
    end
  | exception
      (Client.Stuck m | Client.Data_loss m | Client.Write_abandoned m) ->
    Result.fail rig.ledger (Printf.sprintf "read of block %d: %s" b m);
    -1

let collect rig =
  Result.attempt rig.ledger;
  let t0 = begin_op rig in
  match Client.collect_garbage rig.client with
  | () -> end_op rig Tracer.Op_gc t0
  | exception
      (Client.Stuck m | Client.Data_loss m | Client.Write_abandoned m) ->
    Result.fail rig.ledger ("gc round: " ^ m);
    -1

let rebuild_stripe rig slot =
  Result.attempt rig.ledger;
  let t0 = begin_op rig in
  match Client.recover_slot ~delta:false rig.client ~slot with
  | () -> end_op rig Tracer.Op_rebuild t0
  | exception
      (Client.Stuck m | Client.Data_loss m | Client.Write_abandoned m) ->
    Result.fail rig.ledger (Printf.sprintf "rebuild of stripe %d: %s" slot m);
    -1

(* ------------------------------------------------------------------ *)
(* One measured window. *)

type window = {
  units : Meter.series;  (** units of work: client ops, or rebuilt stripes *)
  lat_us : Meter.samples array;  (** per {!Tracer.op}, GC rounds included *)
  wall_ns : int;
}

let window ~duration_ns =
  {
    units = Meter.series ~duration_ns;
    lat_us = Array.map (fun _ -> Meter.samples ()) Tracer.ops;
    wall_ns = duration_ns;
  }

let record w op lat =
  if lat >= 0 then
    Meter.push w.lat_us.(Tracer.op_index op) (Meter.us_of_ns lat)

let gc_due rig = rig.writes mod gc_every = 0

(* Closed loop: uniform keys, [write_frac] writes. *)
let drive_io rig st w =
  let shape = rig.shape in
  let t_start = Meter.now_ns () in
  let deadline = t_start + w.wall_ns in
  while Meter.now_ns () < deadline do
    let is_write = Random.State.float st 1.0 < shape.write_frac in
    let b = Random.State.int st shape.blocks in
    let op, lat =
      if is_write then
        (Tracer.Op_write, write rig b ~version:(rig.versions.(b) + 1))
      else (Tracer.Op_read, read rig b)
    in
    if lat >= 0 then begin
      record w op lat;
      Meter.tick w.units ~at_ns:(Meter.now_ns () - t_start) ~lat_ns:lat
    end;
    if is_write && gc_due rig then record w Tracer.Op_gc (collect rig)
  done

let without_tracing rig f =
  match rig.tracer with
  | Some t when t.Tracer.enabled ->
    t.Tracer.enabled <- false;
    Fun.protect f ~finally:(fun () -> t.Tracer.enabled <- true)
  | _ -> f ()

(* Untimed: every stripe reports healthy and reads back intact. *)
let verify_stripes rig =
  without_tracing rig (fun () ->
      for slot = 0 to stripes rig.shape - 1 do
        (match Client.verify_slot rig.client ~slot with
        | h ->
          Result.expect rig.ledger h.Client.sh_healthy
            (Printf.sprintf
               "stripe %d unhealthy after rebuild: %d live, %d consistent, %d \
                init"
               slot h.Client.sh_live h.Client.sh_consistent h.Client.sh_init)
        | exception
            (Client.Stuck m | Client.Data_loss m | Client.Write_abandoned m) ->
          Result.expect rig.ledger false
            (Printf.sprintf "verify of stripe %d: %s" slot m));
        for pos = 0 to k - 1 do
          let b = Layout.block_of_stripe rig.layout ~stripe:slot ~pos in
          ignore (read rig b)
        done
      done)

(* Rebuild cycles.  Cycle [c] fail-stops node [c mod n], replaces it
   with a fresh INIT node and rebuilds every stripe onto it.  Only the
   crash, remap and rebuild calls advance the window's clock; the
   verification that ends each cycle is untimed. *)
let drive_rebuild rig ~cycle w =
  let timed = ref 0 in
  while !timed < w.wall_ns do
    let node = !cycle mod n in
    incr cycle;
    let t0 = Meter.now_ns () in
    Par_env.crash_node rig.env node;
    Par_env.remap_node rig.env node;
    timed := !timed + (Meter.now_ns () - t0);
    for slot = 0 to stripes rig.shape - 1 do
      let counted = !timed < w.wall_ns in
      let lat = rebuild_stripe rig slot in
      if counted && lat >= 0 then begin
        timed := !timed + lat;
        record w Tracer.Op_rebuild lat;
        Meter.tick w.units ~at_ns:!timed ~lat_ns:lat
      end
    done;
    verify_stripes rig
  done

let drive rig st ~cycle w =
  if is_rebuild rig.shape then drive_rebuild rig ~cycle w else drive_io rig st w

(* ------------------------------------------------------------------ *)

(* Environment plus every block written once (version 0). *)
let setup ?tracer ledger shape =
  let t0 = Meter.now_ns () in
  let rig = create_rig ?tracer ledger shape in
  for b = 0 to shape.blocks - 1 do
    ignore (write rig b ~version:0);
    if gc_due rig then ignore (collect rig)
  done;
  (rig, Meter.s_of_ns (Meter.now_ns () - t0))

(* Final checks, untimed and untraced: space and live heap after two
   GC rounds, every block read back, and every stripe checked against
   the code. *)
let finish rig =
  ignore (collect rig);
  ignore (collect rig);
  let store node = Par_env.node_store rig.env node in
  let space_amp, overhead_per_slot =
    Meter.space ~block_size:rig.shape.block_size ~blocks:rig.shape.blocks
      (List.init n store)
  in
  let live_heap_mb = Meter.live_heap_mb () in
  for b = 0 to rig.shape.blocks - 1 do
    ignore (read rig b)
  done;
  Result.check_stripes rig.ledger rig.code
    ~stripes:(List.init (stripes rig.shape) Fun.id)
    ~block:(fun ~stripe ~pos ->
      Storage_node.peek_block
        (store (Layout.node_of rig.layout ~stripe ~pos))
        ~slot:stripe);
  Par_env.shutdown rig.env;
  (space_amp, overhead_per_slot, live_heap_mb)

let op_stream ~seed shape =
  Random.State.make [| seed; Hashtbl.hash shape.name |]

let warm_up ~quick rig st ~cycle =
  if not quick then
    drive rig st ~cycle (window ~duration_ns:(Meter.ns_of_s warmup_s))

let sized ~quick shape =
  if quick then { shape with blocks = shape.blocks / quick_divisor } else shape

(* ------------------------------------------------------------------ *)

let run_plain ~quick shape ~seed ~seconds =
  let shape = sized ~quick shape in
  let ledger = Result.ledger () in
  (* Set up [setup_reps] times and keep the last rig; [setup_s] is the
     median.  Every rig before it is shut down, and each step starts
     from a compacted heap, so none carries another's garbage. *)
  let rec setups times r =
    Stdlib.Gc.compact ();
    let rig, s = setup ledger shape in
    if r = 1 then (rig, s :: times)
    else begin
      Par_env.shutdown rig.env;
      setups (s :: times) (r - 1)
    end
  in
  let rig, times = setups [] (if quick then 1 else setup_reps) in
  Stdlib.Gc.compact ();
  let st = op_stream ~seed shape in
  let cycle = ref 0 in
  warm_up ~quick rig st ~cycle;
  let w = window ~duration_ns:(Meter.ns_of_s seconds) in
  drive rig st ~cycle w;
  let space_amp, _, live_heap_mb = finish rig in
  let ops_per_s = Meter.per_second w.units in
  let units = Meter.pooled w.units in
  let count = Array.length units in
  let notes =
    [
      ( "p50_us",
        Printf.sprintf "median of %d sub-window medians, n=%d" Meter.windows
          count );
      ( "p99_us",
        Printf.sprintf "n=%d beyond=%d" count (Meter.beyond count 0.99) );
    ]
  in
  let gc = Meter.sorted w.lat_us.(Tracer.op_index Tracer.Op_gc) in
  let metrics =
    Layers.fill Layers.end_to_end ~notes
      [
        ("setup_s", Meter.median_of times);
        ("ops_per_s", ops_per_s);
        ("mb_per_s", ops_per_s *. float_of_int shape.block_size /. Meter.mib);
        ("space_amp", space_amp);
        ("live_heap_mb", live_heap_mb);
        ("p50_us", Meter.window_p50 w.units);
        ("p99_us", Meter.percentile units 0.99);
      ]
  in
  let open Report in
  {
    Result.workload = shape.name;
    ledger;
    metrics;
    details =
      [
        ("units", J_int count);
        ("gc_rounds", J_int (Array.length gc));
        ("gc_p50_us", J_raw (Result.num (Meter.percentile gc 0.5)));
        ("rebuild_cycles", J_int !cycle);
      ];
  }

(* The per-layer numbers of the traced sub-windows.  [calib] supplies
   the storage service times the handoff is the remainder of;
   [plain_lat op] is the sorted latencies of [op] in the untraced
   sub-windows, the source of the per-kind percentiles. *)
let per_layer shape (t : Tracer.t) ~calib ~plain_lat ~overhead ~minor_words
    ~counter_delta ~overhead_per_slot =
  let ops op = float_of_int (Tracer.ops_of t op) in
  let units =
    Float.max 1.
      (if is_rebuild shape then ops Tracer.Op_rebuild
       else ops Tracer.Op_read +. ops Tracer.Op_write)
  in
  let rebuilds = ops Tracer.Op_rebuild and rounds = ops Tracer.Op_gc in
  let calls i = float_of_int t.Tracer.calls.(i) in
  let kind_mean i =
    if t.Tracer.calls.(i) = 0 then 0.
    else Meter.us_of_ns t.Tracer.call_ns.(i) /. calls i
  in
  let transport =
    List.concat
      (List.mapi
         (fun i kind ->
           [
             ("transport." ^ kind ^ ".calls_per_op", calls i /. units);
             ("transport." ^ kind ^ ".mean_us", kind_mean i);
           ])
         Layers.transport_kinds)
  in
  let handoff =
    List.map
      (fun kind ->
        let i = Tracer.kind_index kind in
        ( "par.handoff_us." ^ kind,
          if t.Tracer.calls.(i) = 0 then 0.
          else kind_mean i -. List.assoc ("storage." ^ kind ^ "_us") calib ))
      Layers.handoff_kinds
  in
  let kind_pct name op =
    let sorted = plain_lat op in
    [
      (name ^ "_p50_us", Meter.percentile sorted 0.50);
      (name ^ "_p99_us", Meter.percentile sorted 0.99);
    ]
  in
  let self op = Meter.mean t.Tracer.self_us.(Tracer.op_index op) in
  let op_time_us =
    Array.fold_left (fun acc s -> acc +. Meter.sum s) 0. t.Tracer.lat_us
  in
  let per_rebuild x = if rebuilds = 0. then 0. else x /. rebuilds in
  let phase_us =
    Array.to_list
      (Array.mapi
         (fun i p ->
           ( "recovery." ^ p ^ "_us",
             per_rebuild (Meter.us_of_ns t.Tracer.phase_ns.(i)) ))
         Tracer.phases)
  in
  let gc_us = Meter.mean t.Tracer.lat_us.(Tracer.op_index Tracer.Op_gc) in
  calib
  @ [ ("storage.overhead_bytes_per_slot", overhead_per_slot) ]
  @ transport
  @ [
      ( "transport.busy_frac",
        Meter.us_of_ns t.Tracer.transport_ns /. op_time_us );
      ("transport.pfor_us_per_op", Meter.us_of_ns t.Tracer.pfor_ns /. units);
    ]
  @ handoff
  @ kind_pct "op.read" Tracer.Op_read
  @ kind_pct "op.write" Tracer.Op_write
  @ [
      ("core.read_self_us", self Tracer.Op_read);
      ("core.write_self_us", self Tracer.Op_write);
      ("core.rebuild_self_us", self Tracer.Op_rebuild);
      ("core.minor_words_per_op", minor_words /. units);
      ("core.gc_round_us", gc_us);
      ( "core.gc_rpcs_per_round",
        if rounds = 0. then 0. else calls (Tracer.kind_index "gc") /. rounds );
      ("core.rpc_retries_per_op", counter_delta "rpc.retries" /. units);
      ( "core.order_rejections_per_op",
        counter_delta "write.order_rejections" /. units );
      ( "core.recovery_backoffs_per_op",
        counter_delta "recovery.phase.backoff" /. units );
    ]
  @ phase_us
  @ [
      ( "repair.bytes_read_per_rebuilt_byte",
        per_rebuild
          (float_of_int t.Tracer.repair_bytes_read
          /. float_of_int shape.block_size) );
      ("trace.overhead_frac", overhead);
    ]

(* Checks the traced breakdown must pass: transport time inside an op
   never exceeds the op, and the recovery phases cover the rebuild. *)
let check_breakdown ledger (t : Tracer.t) =
  Result.expect ledger (t.Tracer.self_negative = 0)
    (Printf.sprintf "%d ops spent longer in transport than their own latency"
       t.Tracer.self_negative);
  if Tracer.ops_of t Tracer.Op_rebuild > 0 then begin
    let p50 s = Meter.percentile (Meter.sorted s) 0.5 in
    let lat = p50 t.Tracer.lat_us.(Tracer.op_index Tracer.Op_rebuild) in
    let phases = p50 t.Tracer.phase_sums_us in
    Result.expect ledger
      (Float.abs (phases -. lat) <= 0.05 *. lat)
      (Printf.sprintf
         "recovery phases sum to %.1f us at p50, rebuild p50 is %.1f us" phases
         lat)
  end

(* The traced run's window is cut into this many pairs of one plain and
   one traced sub-window.  The two alternate, and so does which of them
   goes first, so a drift in the host's speed moves both sides alike and
   the ratio of their median throughputs is the tracing overhead. *)
let trace_pairs = 5

(* Traced run: the same setup and warm-up, then the alternating plain
   and traced sub-windows, the final checks, and the calibration
   microbenches at this block size. *)
let run_traced ~quick shape ~seed ~seconds ~spans =
  let shape = sized ~quick shape in
  let ledger = Result.ledger () in
  let tracer = Tracer.create () in
  let rig, _ = setup ~tracer ledger shape in
  let st = op_stream ~seed shape in
  let cycle = ref 0 in
  warm_up ~quick rig st ~cycle;
  let counter key =
    float_of_int (Metrics.counter (Client.metrics rig.client) key)
  in
  let keys =
    [ "rpc.retries"; "write.order_rejections"; "recovery.phase.backoff" ]
  in
  (* Allocation and wasted work, summed over the traced sub-windows. *)
  let snapshot () = Stdlib.Gc.minor_words () :: List.map counter keys in
  let traced_sums = ref (List.map (fun _ -> 0.) (snapshot ())) in
  let part = Meter.ns_of_s (seconds /. float_of_int (2 * trace_pairs)) in
  let sub_window ~traced =
    let w = window ~duration_ns:part in
    let before = snapshot () in
    tracer.Tracer.enabled <- traced;
    drive rig st ~cycle w;
    tracer.Tracer.enabled <- false;
    if traced then
      traced_sums :=
        List.map2
          (fun sum (b, a) -> sum +. a -. b)
          !traced_sums
          (List.combine before (snapshot ()));
    w
  in
  let plain, traced =
    List.split
      (List.init trace_pairs (fun p ->
           if p mod 2 = 0 then
             let pl = sub_window ~traced:false in
             (pl, sub_window ~traced:true)
           else
             let tr = sub_window ~traced:true in
             (sub_window ~traced:false, tr)))
  in
  let minor_words = List.hd !traced_sums in
  let counter_delta key =
    List.assoc key (List.combine keys (List.tl !traced_sums))
  in
  let _, overhead_per_slot, _ = finish rig in
  let calib = Calib.run ~quick ledger ~block_size:shape.block_size in
  Tracer.dump tracer spans;
  check_breakdown ledger tracer;
  let rate ws =
    Meter.median_of (List.map (fun w -> Meter.mean_per_second w.units) ws)
  in
  let plain_lat op =
    let i = Tracer.op_index op in
    let a =
      Array.concat (List.map (fun w -> Meter.sorted w.lat_us.(i)) plain)
    in
    Array.sort Float.compare a;
    a
  in
  let overhead =
    if rate plain = 0. then 0. else 1. -. (rate traced /. rate plain)
  in
  let values =
    per_layer shape tracer ~calib ~plain_lat ~overhead ~minor_words
      ~counter_delta ~overhead_per_slot
  in
  let rate ws = Report.J_raw (Result.num (rate ws)) in
  {
    Result.workload = shape.name;
    ledger;
    metrics = Layers.fill Layers.per_layer values;
    details =
      [
        ("plain_ops_per_s", rate plain);
        ("traced_ops_per_s", rate traced);
        ("spans", Report.J_int tracer.Tracer.sp_len);
        ("spans_dropped", Report.J_int tracer.Tracer.sp_dropped);
        ("span_dump", Report.J_str spans);
      ];
  }
