(* Real-hardware benchmark over the parallel backend (Par_env): the
   same protocol stack the simulator drives, but on OCaml 5 domains
   with a wall clock.  Numbers here are measurements, not replays —
   they vary run to run and across machines, so nothing below feeds
   the byte-identity regression gates; CI asserts only schema and
   coarse sanity floors.

   Legs:
   - scaling: closed-loop writer domains (1/2/4/8) over actors with a
     per-request service time modeling device latency.  In this
     latency-bound regime aggregate throughput scales with writer
     count as overlapping requests hide the service waits — including
     on a single-core host, which is why this (and not raw CPU
     parallelism) is the headline curve CI checks monotonicity on.
   - cpu: service_time = 0 and large blocks, so coding arithmetic
     dominates.  Genuine CPU-parallel speedup needs real cores; the
     summary carries the detected core count so consumers can gate on
     it.
   - adds_race: cross-domain commutativity spot check (three writer
     domains hammer distinct data blocks of one stripe; decode must
     agree) — the deep version lives in test_par.
   - simulated: the same profile through the discrete-event simulator
     for side-by-side reading.

   Every leg's environments use the same worker count, and each
   writer's pfor fan-out runs as coroutines on its own domain (no pfor
   pool), so on a 2- or 3-core host every leg parks; on 4 or more the
   race leg spins while the 300 us scaling legs and the 64 KiB CPU leg
   still park (Par_env.spins).  The summary records which handoff was
   measured. *)

open Ecs_volume

let profile_name = "mixed-70-30"
let scaling_domains = [ 1; 2; 4; 8 ]
let ops_per_writer = 150
let blocks_per_writer = 64
let service_time = 300e-6
let block_size = 4096
let workers = 3
let cpu_block_size = 65536
let cpu_domains = [ 1; 2 ]
let cpu_ops = 48
let race_writers = 3
let race_rounds = 5

let cfg ~block_size = Config.make ~t_p:1 ~block_size ~k:4 ~n:6 ()

(* The handoffs the legs' environments chose; "mixed" in the summary
   if they ever disagree. *)
let handoffs = ref []

let note_handoff env =
  let h = if Par_env.spins env then "spin" else "park" in
  if not (List.mem h !handoffs) then handoffs := h :: !handoffs

let profile () =
  match Profile.find profile_name with
  | Some p -> p
  | None -> List.hd Profile.all

type writer_out = {
  wo_lat : float array;  (* per-request latency, seconds *)
  wo_reads : int;
  wo_writes : int;
}

(* One closed-loop writer: its own client id and its own disjoint slot
   range, op mix drawn from the seeded profile generator.  Returns
   per-request latencies; nothing is shared with other writers. *)
let writer_body env ~cfg ~w () =
  let c = Par_env.make_client env ~id:(100 + w) in
  let k = cfg.Config.k in
  let gen =
    Profile.generator (profile ()) ~seed:(0xbead + (131 * w))
      ~blocks:blocks_per_writer
  in
  let base_slot = w * ((blocks_per_writer + k - 1) / k) in
  let block = Bytes.create cfg.Config.block_size in
  let lat = Array.make ops_per_writer 0. in
  let reads = ref 0 and writes = ref 0 in
  for op = 0 to ops_per_writer - 1 do
    let r = Profile.next gen in
    let slot = base_slot + (r.Profile.block / k) in
    let i = r.Profile.block mod k in
    let t0 = Unix.gettimeofday () in
    (match r.Profile.op with
    | Profile.Op_write ->
      incr writes;
      Bytes.fill block 0 (Bytes.length block)
        (Char.chr ((op + (37 * w)) land 0xff));
      ignore (Client.write c ~slot ~i block)
    | Profile.Op_read ->
      incr reads;
      ignore (Client.read c ~slot ~i));
    lat.(op) <- Unix.gettimeofday () -. t0
  done;
  { wo_lat = lat; wo_reads = !reads; wo_writes = !writes }

let scaling_run ~domains =
  let cfg = cfg ~block_size in
  let env = Par_env.create ~workers ~service_time cfg in
  note_handoff env;
  (* Seed every slot any writer can touch so reads always hit written
     data (and the timed region contains no first-touch recoveries). *)
  let seedc = Par_env.make_client env ~id:1 in
  let slots_per_writer = (blocks_per_writer + cfg.Config.k - 1) / cfg.Config.k in
  let zero = Bytes.make cfg.Config.block_size '\000' in
  for slot = 0 to (domains * slots_per_writer) - 1 do
    for i = 0 to cfg.Config.k - 1 do
      ignore (Client.write seedc ~slot ~i zero)
    done
  done;
  (* Start barrier so the measured window covers only overlapped load. *)
  let go = Atomic.make false in
  let doms =
    List.init domains (fun w ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            writer_body env ~cfg ~w ()))
  in
  let t0 = Unix.gettimeofday () in
  Atomic.set go true;
  let outs = List.map Domain.join doms in
  let elapsed = Unix.gettimeofday () -. t0 in
  Par_env.shutdown env;
  let lat = List.concat_map (fun o -> Array.to_list o.wo_lat) outs in
  let ops = List.length lat in
  let reads = List.fold_left (fun a o -> a + o.wo_reads) 0 outs in
  let writes = List.fold_left (fun a o -> a + o.wo_writes) 0 outs in
  let bytes = ops * block_size in
  let mbs = float_of_int bytes /. (1024. *. 1024.) /. elapsed in
  let iops = float_of_int ops /. elapsed in
  Printf.printf
    "parallel d=%d: %7.2f MB/s, %7.1f IOPS | p50 %6.2f ms p99 %6.2f ms | %d \
     ops (%d r / %d w) in %.3f s\n\
     %!"
    domains mbs iops
    (1000. *. Vrunner.percentile 0.50 lat)
    (1000. *. Vrunner.percentile 0.99 lat)
    ops reads writes elapsed;
  let open Report in
  ( mbs,
    J_obj
      [
        ("domains", J_int domains);
        ("ops", J_int ops);
        ("reads", J_int reads);
        ("writes", J_int writes);
        ("elapsed_s", J_float (elapsed, 4));
        ("mbs", J_float (mbs, 3));
        ("iops", J_float (iops, 1));
        ("p50_ms", J_float (1000. *. Vrunner.percentile 0.50 lat, 4));
        ("p99_ms", J_float (1000. *. Vrunner.percentile 0.99 lat, 4));
      ] )

(* CPU-bound leg: no service time, big blocks, writes only.  On a
   single core this measures overhead of the domain machinery; on real
   cores it exposes coding-arithmetic parallelism.  [cores] in the
   summary tells the consumer which regime produced the numbers. *)
let cpu_run ~domains =
  let cfg = cfg ~block_size:cpu_block_size in
  let env = Par_env.create ~workers ~service_time:0. cfg in
  note_handoff env;
  let go = Atomic.make false in
  let doms =
    List.init domains (fun w ->
        Domain.spawn (fun () ->
            let c = Par_env.make_client env ~id:(100 + w) in
            let block = Bytes.make cfg.Config.block_size (Char.chr (1 + w)) in
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            for op = 0 to cpu_ops - 1 do
              ignore
                (Client.write c ~slot:((w * 16) + (op mod 16))
                   ~i:(op mod cfg.Config.k) block)
            done))
  in
  let t0 = Unix.gettimeofday () in
  Atomic.set go true;
  List.iter Domain.join doms;
  let elapsed = Unix.gettimeofday () -. t0 in
  Par_env.shutdown env;
  let bytes = domains * cpu_ops * cpu_block_size in
  let mbs = float_of_int bytes /. (1024. *. 1024.) /. elapsed in
  Printf.printf "cpu d=%d: %7.2f MB/s (%d x %d KiB writes in %.3f s)\n%!"
    domains mbs (domains * cpu_ops) (cpu_block_size / 1024) elapsed;
  let open Report in
  J_obj
    [
      ("domains", J_int domains);
      ("writes", J_int (domains * cpu_ops));
      ("elapsed_s", J_float (elapsed, 4));
      ("mbs", J_float (mbs, 3));
    ]

(* Commutativity spot check: concurrent adds from distinct writers to
   one stripe must leave redundant state that decodes to the last
   value of every block. *)
let adds_race () =
  let cfg = Config.make ~t_p:1 ~block_size:1024 ~k:3 ~n:5 () in
  let t0 = Unix.gettimeofday () in
  let ok = ref true in
  for round = 1 to race_rounds do
    let env = Par_env.create ~workers cfg in
    note_handoff env;
    let doms =
      List.init race_writers (fun i ->
          Domain.spawn (fun () ->
              let c = Par_env.make_client env ~id:(10 + i) in
              let b = Bytes.create cfg.Config.block_size in
              for r = 1 to 10 do
                Bytes.fill b 0 (Bytes.length b)
                  (Char.chr ((i * 50) + r + round land 0xff));
                ignore (Client.write c ~slot:0 ~i b)
              done))
    in
    List.iter Domain.join doms;
    let c = Par_env.make_client env ~id:1 in
    for i = 0 to race_writers - 1 do
      let expect =
        Bytes.make cfg.Config.block_size
          (Char.chr ((i * 50) + 10 + round land 0xff))
      in
      if not (Bytes.equal (Client.read c ~slot:0 ~i) expect) then ok := false;
      (* and through the decode path: mask the data node, rebuild from
         the redundant columns the racing adds updated *)
      Par_env.crash_node env i;
      (match Client.read_degraded c ~slot:0 ~i with
      | Some v -> if not (Bytes.equal v expect) then ok := false
      | None -> ok := false);
      Par_env.revive_node env i
    done;
    Par_env.shutdown env
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf "adds-race: %s (%d rounds x %d writers, %.3f s)\n%!"
    (if !ok then "OK" else "FAILED")
    race_rounds race_writers elapsed;
  let open Report in
  J_obj
    [
      ("rounds", J_int race_rounds);
      ("writers", J_int race_writers);
      ("ok", J_bool !ok);
      ("elapsed_s", J_float (elapsed, 4));
    ]

(* Same profile through the simulator, for side-by-side reading. *)
let simulated () =
  let scfg =
    Config.make ~t_p:1 ~block_size ~k:4 ~n:6 ~stale_write_age:0.3 ()
  in
  let placement = Placement.make ~seed:0x7ace ~groups:1 ~nodes_per_group:6 ~pool:8 () in
  let sc = Shard_cluster.create ~seed:0xF0 ~placement scfg in
  let tenants =
    [
      {
        Vrunner.tn_name = profile_name;
        tn_profile = profile ();
        tn_qos_blocks_per_sec = None;
        tn_seed = 0xbead;
      };
    ]
  in
  let r =
    Vrunner.run_profile ~warmup:0.05 ~events:[] ~blocks:192 ~sc ~tenants
      ~duration:0.2 ()
  in
  Printf.printf
    "simulated %s: %6.2f MB/s | p99 r %6.2f ms, w %6.2f ms\n%!" profile_name
    (r.Vrunner.pf_read_mbs +. r.Vrunner.pf_write_mbs)
    (1000. *. r.Vrunner.pf_p99_read)
    (1000. *. r.Vrunner.pf_p99_write);
  let open Report in
  J_obj
    [
      ("profile", J_str profile_name);
      ("read_mbs", J_float (r.Vrunner.pf_read_mbs, 3));
      ("write_mbs", J_float (r.Vrunner.pf_write_mbs, 3));
      ( "total_mbs",
        J_float (r.Vrunner.pf_read_mbs +. r.Vrunner.pf_write_mbs, 3) );
      ("p99_read_ms", J_float (1000. *. r.Vrunner.pf_p99_read, 4));
      ("p99_write_ms", J_float (1000. *. r.Vrunner.pf_p99_write, 4));
    ]

let run ?json () =
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "parallel backend bench: %d detected cores, %d actor workers, service \
     time %.0f us\n\
     %!"
    cores workers (1e6 *. service_time);
  let scaling = List.map (fun d -> scaling_run ~domains:d) scaling_domains in
  let cpu = List.map (fun d -> cpu_run ~domains:d) cpu_domains in
  let race = adds_race () in
  let handoff = match !handoffs with [ h ] -> h | _ -> "mixed" in
  Printf.printf "handoff: %s\n%!" handoff;
  let sim = simulated () in
  (match json with
  | None -> ()
  | Some path ->
    let open Report in
    let doc =
      J_obj
        [
          ( "config",
            J_obj
              [
                ("k", J_int 4);
                ("n", J_int 6);
                ("block_size", J_int block_size);
                ("workers", J_int workers);
                ("service_time_us", J_float (1e6 *. service_time, 1));
                ("ops_per_writer", J_int ops_per_writer);
                ("cores", J_int cores);
                ("handoff", J_str handoff);
                ("cpu_block_size", J_int cpu_block_size);
              ] );
          ("scaling", J_arr (List.map snd scaling));
          ("cpu", J_arr cpu);
          ("adds_race", race);
          ("simulated", sim);
        ]
    in
    Report.write_file path doc;
    Printf.printf "wrote %s\n%!" path);
  (* Sanity inside the bench itself: the latency-bound curve must not
     collapse (4 writers beating 1 writer holds on any host because the
     scaling is wait-overlap, not CPU). *)
  match (List.assoc_opt 1 (List.combine scaling_domains (List.map fst scaling)),
         List.assoc_opt 4 (List.combine scaling_domains (List.map fst scaling)))
  with
  | Some m1, Some m4 when m4 <= m1 ->
    Printf.eprintf "WARNING: 4-domain MB/s (%.2f) <= 1-domain (%.2f)\n%!" m4 m1
  | _ -> ()
