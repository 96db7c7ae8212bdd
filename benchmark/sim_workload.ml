(* sim-mixed: the discrete-event simulator itself, which every paper
   figure and every committed BENCH_*.json runs on.  A G = 4 volume
   over 24 simulated nodes (k = 4, n = 6, 4 KiB blocks) runs the
   mixed-70-30 profile closed-loop with 8 outstanding requests over
   1024 blocks.  Each fresh run builds the cluster, writes every block
   once (the set-up) and then simulates a fixed amount of time; the
   window repeats fresh runs until its wall-clock budget is spent, and
   the median run is the throughput.

   The run carries wall-clock marks as scheduled simulator events, one
   every [slice] of simulated time: the wall time between two marks is
   the latency sample (what it costs to simulate 10 ms), and the marks
   at the measured window's ends time the run.  A 1 ms slice holds
   about 30 operations, so its time swings with every minor collection;
   over ten runs the p99 of 10 ms slices spread half as much.  The p50
   is the median of the runs' own medians, so one slow run moves
   nothing; the p99 pools every run's slices, about 5000 in a 20 s
   window. *)

open Ecs_volume

let name = "sim-mixed"
let groups = 4
let pool = 24
let blocks = 1024
let block_size = 4096
let sim_warmup = 0.05
let sim_seconds = 1.0
let slice = 0.01
let n_slices = int_of_float (Float.round (sim_seconds /. slice))
let prefill_fibers = 8
let profile = Option.get (Profile.find "mixed-70-30")

let cluster () =
  let cfg =
    Config.make ~t_p:1 ~block_size ~k:4 ~n:6 ~stale_write_age:0.3 ()
  in
  let placement =
    Placement.make ~seed:0x7ace ~groups ~nodes_per_group:6 ~pool ()
  in
  Shard_cluster.create ~seed:0xF0 ~placement cfg

type run = {
  setup_ns : int;  (** cluster built and every block written *)
  ops : int;  (** requests completed inside the measured window *)
  wall_ns : int;  (** wall time of the measured window *)
  run_ns : int;  (** wall time of the whole run, warm-up included *)
  events : int;  (** events dispatched over the whole run *)
  slices_us : float array;  (** wall time per simulated slice, sorted *)
  minor_words : float;
  majors : int;
  heap_mb : float;
  simulated_mb_per_s : float;
  simulated_read_p99_ms : float;
  space_amp : float;
  overhead_per_slot : float;
  live_heap_mb : float;  (** with the run's cluster still alive *)
}

(* The profile runner writes byte [l land 0xff] into every byte of
   block [l]; the set-up writes the same, so a block read back must hold
   exactly that. *)
let contents l = Bytes.make block_size (Char.chr (l land 0xff))

(* [fibers] simulated fibers of one fresh client share [f] over the
   blocks; a failed operation lands in the ledger. *)
let over_blocks ledger sc ~id ~fibers f =
  let vol = Volume.create sc ~id in
  for first = 0 to fibers - 1 do
    Shard_cluster.spawn sc (fun () ->
        let l = ref first in
        while !l < blocks do
          Result.attempt ledger;
          (try f vol !l
           with
           | Client.Stuck m | Client.Data_loss m | Client.Write_abandoned m ->
             Result.fail ledger (Printf.sprintf "simulated block %d: %s" !l m));
          l := !l + fibers
        done)
  done;
  Shard_cluster.run sc

let prefill ledger sc =
  over_blocks ledger sc ~id:999 ~fibers:prefill_fibers (fun vol l ->
      Volume.write vol l (contents l))

let stores sc =
  List.concat_map
    (fun g ->
      let dir = Shard_cluster.group_directory sc g in
      List.init (Directory.n dir) (fun i ->
          (Directory.lookup dir i).Directory.store))
    (List.init groups Fun.id)

(* Every block reads back as written, and every stripe any group
   served satisfies the code. *)
let check_contents ledger sc =
  over_blocks ledger sc ~id:1000 ~fibers:1 (fun vol l ->
      if not (Bytes.equal (Volume.read vol l) (contents l)) then
        Result.fail ledger
          (Printf.sprintf "simulated block %d: wrong bytes" l));
  for g = 0 to groups - 1 do
    let dir = Shard_cluster.group_directory sc g in
    let layout = Shard_cluster.group_layout sc g in
    Result.check_stripes ledger (Shard_cluster.code sc)
      ~stripes:(Shard_cluster.used_slots sc ~group:g)
      ~block:(fun ~stripe ~pos ->
        let node = Layout.node_of layout ~stripe ~pos in
        Storage_node.peek_block (Directory.lookup dir node).Directory.store
          ~slot:stripe)
  done

let one_run ledger ~seed =
  (* The previous run's cluster is garbage: collect it first, so no run
     pays for another's. *)
  Stdlib.Gc.compact ();
  let t0 = Meter.now_ns () in
  let sc = cluster () in
  prefill ledger sc;
  let setup_ns = Meter.now_ns () - t0 in
  let marks = Array.make (n_slices + 1) 0 in
  let events =
    List.init (n_slices + 1) (fun i ->
        ( sim_warmup +. (float_of_int i *. slice),
          fun _ -> marks.(i) <- Meter.now_ns () ))
  in
  let tenants =
    [
      {
        Vrunner.tn_name = profile.Profile.name;
        tn_profile = profile;
        tn_qos_blocks_per_sec = None;
        tn_seed = seed;
      };
    ]
  in
  let engine = Shard_cluster.engine sc in
  let ev0 = Engine.processed engine in
  let g0 = Stdlib.Gc.quick_stat () in
  let t0 = Meter.now_ns () in
  let r =
    Vrunner.run_profile ~warmup:sim_warmup ~events ~blocks ~sc ~tenants
      ~duration:sim_seconds ()
  in
  let run_ns = Meter.now_ns () - t0 in
  let g1 = Stdlib.Gc.quick_stat () in
  let events = Engine.processed engine - ev0 in
  let lat =
    Array.init n_slices (fun i -> Meter.us_of_ns (marks.(i + 1) - marks.(i)))
  in
  Array.sort Float.compare lat;
  let ops = r.Vrunner.pf_read_reqs + r.Vrunner.pf_write_reqs in
  ledger.Result.attempted <- ledger.Result.attempted + ops;
  Result.expect ledger
    (r.Vrunner.pf_stalls = 0 && r.Vrunner.pf_drops = 0)
    (Printf.sprintf "simulated run: %d stalled and %d dropped requests"
       r.Vrunner.pf_stalls r.Vrunner.pf_drops);
  let live_heap_mb = Meter.live_heap_mb () in
  let space_amp, overhead_per_slot =
    Meter.space ~block_size ~blocks (stores sc)
  in
  check_contents ledger sc;
  {
    setup_ns;
    ops;
    wall_ns = marks.(n_slices) - marks.(0);
    run_ns;
    events;
    slices_us = lat;
    minor_words = Stdlib.Gc.(g1.minor_words -. g0.minor_words);
    majors = Stdlib.Gc.(g1.major_collections - g0.major_collections);
    heap_mb =
      float_of_int (Stdlib.Gc.(g1.heap_words) * (Sys.word_size / 8))
      /. Meter.mib;
    simulated_mb_per_s = r.Vrunner.pf_read_mbs +. r.Vrunner.pf_write_mbs;
    simulated_read_p99_ms = 1000. *. r.Vrunner.pf_p99_read;
    space_amp;
    overhead_per_slot;
    live_heap_mb;
  }

(* Fresh runs until [seconds] of wall time are spent (at least one). *)
let runs ledger ~seed ~seconds =
  let deadline = Meter.now_ns () + Meter.ns_of_s seconds in
  let rec go acc =
    let acc = one_run ledger ~seed :: acc in
    if Meter.now_ns () < deadline then go acc else List.rev acc
  in
  go []

let ops_per_s r = float_of_int r.ops /. Meter.s_of_ns r.wall_ns
let median f l = Meter.median_of (List.map f l)

let run_plain ~seed ~seconds =
  let ledger = Result.ledger () in
  let rs = runs ledger ~seed ~seconds in
  let ops = median ops_per_s rs in
  let count = List.length rs in
  let pooled = Array.concat (List.map (fun r -> r.slices_us) rs) in
  Array.sort Float.compare pooled;
  let pooled_n = Array.length pooled in
  let notes =
    [
      ( "p50_us",
        Printf.sprintf "median of %d run medians, n=%d per run" count n_slices
      );
      ( "p99_us",
        Printf.sprintf "n=%d beyond=%d" pooled_n (Meter.beyond pooled_n 0.99) );
    ]
  in
  {
    Result.workload = name;
    ledger;
    metrics =
      Layers.fill Layers.end_to_end ~notes
        [
          ("setup_s", median (fun r -> Meter.s_of_ns r.setup_ns) rs);
          ("ops_per_s", ops);
          ("mb_per_s", ops *. float_of_int block_size /. Meter.mib);
          ("space_amp", median (fun r -> r.space_amp) rs);
          ("live_heap_mb", median (fun r -> r.live_heap_mb) rs);
          ("p50_us", median (fun r -> Meter.percentile r.slices_us 0.5) rs);
          ("p99_us", Meter.percentile pooled 0.99);
        ];
    details = [ ("runs", Report.J_int count) ];
  }

(* The simulator's layers are measured by counters it keeps anyway
   (events dispatched, words allocated), read once per run, so nothing
   is added to trace and [trace.overhead_frac] reads 0; the Par-only
   transport, core and recovery metrics read 0 as well. *)
let run_traced ~quick ~seed ~seconds =
  let ledger = Result.ledger () in
  let rs = runs ledger ~seed ~seconds in
  let per_op f r = f r /. float_of_int (max 1 r.ops) in
  let per_event r = float_of_int r.run_ns /. float_of_int (max 1 r.events) in
  let values =
    Calib.run ~quick ledger ~block_size
    @ [
        ( "storage.overhead_bytes_per_slot",
          median (fun r -> r.overhead_per_slot) rs );
        ( "sim.events_per_op",
          median (per_op (fun r -> float_of_int r.events)) rs );
        ("sim.minor_words_per_op", median (per_op (fun r -> r.minor_words)) rs);
        ("sim.ns_per_event", median per_event rs);
        ("sim.major_collections", median (fun r -> float_of_int r.majors) rs);
        ("sim.heap_mb_end", median (fun r -> r.heap_mb) rs);
        ("sim.simulated_mb_per_s", median (fun r -> r.simulated_mb_per_s) rs);
        ( "sim.simulated_read_p99_ms",
          median (fun r -> r.simulated_read_p99_ms) rs );
      ]
  in
  {
    Result.workload = name;
    ledger;
    metrics = Layers.fill Layers.per_layer values;
    details = [ ("runs", Report.J_int (List.length rs)) ];
  }
