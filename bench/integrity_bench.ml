(* Integrity benchmark: what end-to-end integrity costs and how fast it
   detects at-rest faults.

   Three deterministic legs (fixed seeds: CI runs the bench twice,
   compares the JSON byte-for-byte, then gates it against the committed
   BENCH_integrity.json via [ecstore compare]):

   - overhead: the same failure-free workload with plain reads vs
     verified reads ([Config.integrity.verified_reads]), isolating the
     block+record fast path and client-side digest recompute cost;

   - scrub_lag: a 4-group volume where silent corruption and a
     stale-but-well-formed rollback are injected on *redundant* members
     only — no foreground read ever touches them, so the background
     scrubber is the only defense layer that can see the faults.  Its
     private token budget is tiered to show the detection lag shrinking
     as the scrub rate grows;

   - torture: every stripe of a small cluster gets a data member and a
     redundant member silently corrupted; verified reads must return the
     correct bytes anyway, and a final scrub sweep must leave every
     stripe healthy with detections >= injections. *)

open Ecs_volume

(* ------------------------------------------------------------------ *)
(* Leg 1: verified-read overhead on a failure-free single group.       *)

let overhead_duration = 0.5

let overhead_run ~verified =
  let integrity =
    { Config.default_integrity with Config.verified_reads = verified }
  in
  let cfg = Config.make ~k:3 ~n:5 ~block_size:1024 ~integrity () in
  let cluster = Shard_cluster.create ~remap_policy:`Auto ~seed:0xEC0 cfg in
  let ck = Checker.create () in
  let { Vrunner.run; failures; _ } =
    Vrunner.run_profile ~check:ck ~blocks:64 ~sc:cluster
      ~tenants:
        (Vrunner.clients 4 (Profile.closed ~outstanding:4 ~write_frac:0.2 ()))
      ~duration:overhead_duration ()
  in
  let consistent =
    match Checker.check ck with Ok _ -> true | Error _ -> false
  in
  (run, failures, consistent, Shard_cluster.group_metrics cluster 0)

let overhead_fields (r : Report.run) failures consistent metrics =
  let open Report in
  run_fields r @ failure_fields failures
  @ [
      ("verified_reads", J_int (Metrics.counter metrics "read.verified"));
      ("verify_caught", J_int (Metrics.counter metrics "read.verify_caught"));
      ("history_consistent", J_bool consistent);
    ]

(* ------------------------------------------------------------------ *)
(* Leg 2: scrub detection lag vs budget on a sharded volume.           *)

let lag_rates = [ 1200.; 4800.; 19200. ]
let lag_groups = 4
let lag_duration = 0.6
let inject_at = 0.1
let scrub_period = 0.01

(* Pre-materialize four stripes per group outside the measured run, so
   the foreground workload can be read-only: no add ever re-seals a
   corrupted redundant block, and the scrubber stays the sole detector.
   Returns the per-group snapshot the rollback fault later restores
   (taken after the first write to stripe 0 and before its overwrite,
   so it is genuinely stale but internally well-formed). *)
let lag_setup sc cfg =
  let snaps = Array.make lag_groups None in
  Shard_cluster.spawn sc (fun () ->
      for g = 0 to lag_groups - 1 do
        let client =
          Shard_cluster.make_group_client sc ~id:(500 + g) ~group:g
        in
        let payload s i tag =
          Bytes.init cfg.Config.block_size (fun j ->
              Char.chr (((g * 67) + (s * 31) + (i * 7) + tag + j) land 0xff))
        in
        for s = 0 to 3 do
          for i = 0 to 2 do
            Client.write client ~slot:s ~i (payload s i 0)
          done
        done;
        let layout = Shard_cluster.group_layout sc g in
        let r0 = Layout.node_of layout ~stripe:0 ~pos:3 in
        snaps.(g) <-
          Shard_cluster.snapshot_member sc ~group:g ~index:r0 ~slot:0;
        Client.write client ~slot:0 ~i:0 (payload 0 0 1)
      done);
  Shard_cluster.run sc;
  snaps

(* Three at-rest faults per group, all on redundant members (positions
   k..n-1): two bit-rot corruptions and one same-record rollback. *)
let lag_inject snaps sc =
  for g = 0 to lag_groups - 1 do
    let layout = Shard_cluster.group_layout sc g in
    let node ~slot pos = Layout.node_of layout ~stripe:slot ~pos in
    ignore
      (Shard_cluster.corrupt_member sc ~group:g ~index:(node ~slot:1 3) ~slot:1);
    ignore
      (Shard_cluster.corrupt_member sc ~group:g ~index:(node ~slot:2 4) ~slot:2);
    match snaps.(g) with
    | Some snap ->
      ignore
        (Shard_cluster.rollback_member sc ~group:g ~index:(node ~slot:0 3)
           ~slot:0 snap)
    | None -> ()
  done

let lag_run ~rate =
  let placement =
    Placement.make ~seed:0x7ace ~groups:lag_groups ~nodes_per_group:5 ~pool:12
      ()
  in
  let cfg =
    Config.make ~t_p:1 ~block_size:512 ~k:3 ~n:5 ~stale_write_age:10. ()
  in
  let sc = Shard_cluster.create ~seed:0xEC5 ~placement cfg in
  let snaps = lag_setup sc cfg in
  Vrunner.run_profile
    ~events:[ (inject_at, lag_inject snaps) ]
    ~background:(rate, [ Scrub scrub_period ]) ~blocks:48 ~sc
    ~tenants:
      (Vrunner.clients 4 (Profile.closed ~outstanding:4 ~write_frac:0. ()))
    ~duration:lag_duration ()

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let lag_fields rate (r : Vrunner.result) =
  let lags = r.Vrunner.detection_lag in
  let bg = r.Vrunner.background in
  let open Report in
  [
    ("scrub_rate", J_float (rate, 0));
    ("scrub_period_ms", J_float (1000. *. scrub_period, 1));
    ("injected", J_int r.Vrunner.corruptions_injected);
    ("detected", J_int r.Vrunner.corruptions_detected);
    ("lag_mean_ms", J_float (1000. *. mean lags, 3));
    ("lag_max_ms", J_float (1000. *. List.fold_left Float.max 0. lags, 3));
    ("scrub_passes", J_int bg.scrub_passes);
    ("scrub_errors", J_int bg.scrub_errors);
    ("scrub", J_obj (scrub_fields bg.scrub_report));
  ]

(* ------------------------------------------------------------------ *)
(* Leg 3: corruption torture under verified reads.                     *)

let torture_slots = 8

(* Also the smoke bench's integrity probe, at its own seed and size. *)
let torture_run ?(seed = 0xEC7) ?(slots = torture_slots) () =
  let integrity =
    { Config.default_integrity with Config.verified_reads = true }
  in
  let cfg = Config.make ~k:3 ~n:5 ~block_size:1024 ~integrity () in
  let cluster = Shard_cluster.create ~remap_policy:`Auto ~seed cfg in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  let reads_ok = ref true in
  let injected = ref 0 in
  let scrub_rep = ref Scrub.empty in
  Shard_cluster.spawn cluster (fun () ->
      let payload s i =
        Bytes.init cfg.Config.block_size (fun j ->
            Char.chr (((s * 131) + (i * 17) + j) land 0xff))
      in
      for s = 0 to slots - 1 do
        for i = 0 to 2 do
          Client.write client ~slot:s ~i (payload s i)
        done
      done;
      let layout = Shard_cluster.group_layout cluster 0 in
      for s = 0 to slots - 1 do
        let data = Layout.node_of layout ~stripe:s ~pos:(s mod 3) in
        let red = Layout.node_of layout ~stripe:s ~pos:(3 + (s mod 2)) in
        List.iter
          (fun index ->
            if Shard_cluster.corrupt_member cluster ~group:0 ~index ~slot:s then
              incr injected)
          [ data; red ]
      done;
      for s = 0 to slots - 1 do
        for i = 0 to 2 do
          let b = Client.read client ~slot:s ~i in
          if not (Bytes.equal b (payload s i)) then reads_ok := false
        done
      done;
      scrub_rep := Scrub.scrub client ~slots:(List.init slots Fun.id));
  Shard_cluster.run cluster;
  (cluster, !injected, !reads_ok, !scrub_rep)

let torture_fields cluster injected reads_ok (rep : Scrub.report) =
  let m = Shard_cluster.group_metrics cluster 0 in
  let stats = Shard_cluster.stats cluster in
  let s name = int_of_float (Stats.counter stats name) in
  let node_detected = s "integrity.node_detected" in
  let node_stale = s "integrity.node_stale" in
  let checksum = Metrics.counter m "integrity.checksum_detected" in
  let stale = Metrics.counter m "integrity.stale_detected" in
  let detected = node_detected + node_stale + checksum + stale in
  let open Report in
  ( detected,
    [
      ("injected", J_int injected);
      ("detected", J_int detected);
      ("node_detected", J_int node_detected);
      ("node_stale", J_int node_stale);
      ("client_checksum_detected", J_int checksum);
      ("client_stale_detected", J_int stale);
      ("verified_reads", J_int (Metrics.counter m "read.verified"));
      ("verify_caught", J_int (Metrics.counter m "read.verify_caught"));
      ("repaired", J_int (Metrics.counter m "integrity.repaired"));
      ("reads_ok", J_bool reads_ok);
      ("scrub", J_obj (scrub_fields rep));
    ] )

(* ------------------------------------------------------------------ *)

let run ?json () =
  let plain, pf, pok, pm = overhead_run ~verified:false in
  let verif, vf, vok, vm = overhead_run ~verified:true in
  Report.print_run ~label:"integrity reads (plain)" plain;
  Report.print_run ~label:"integrity reads (verified)" verif;
  let overhead_pct =
    if plain.Report.read_latency > 0. then
      100.
      *. (verif.Report.read_latency -. plain.Report.read_latency)
      /. plain.Report.read_latency
    else 0.
  in
  Printf.printf "%-34s    read latency overhead %.2f%%\n%!" "" overhead_pct;
  let ok = ref (pok && vok) in
  let tiers = List.map (fun rate -> (rate, lag_run ~rate)) lag_rates in
  List.iter
    (fun (rate, (r : Vrunner.result)) ->
      let inj = r.Vrunner.corruptions_injected in
      let det = r.Vrunner.corruptions_detected in
      Printf.printf
        "scrub @ %6.0f ops/s: %d/%d faults detected, lag mean %.1f ms max \
         %.1f ms (%d passes)\n\
         %!"
        rate det inj
        (1000. *. mean r.Vrunner.detection_lag)
        (1000. *. List.fold_left Float.max 0. r.Vrunner.detection_lag)
        r.Vrunner.background.scrub_passes;
      ok :=
        !ok && inj > 0 && det = inj
        && r.Vrunner.background.scrub_report.unrepaired = 0)
    tiers;
  let tcluster, injected, reads_ok, srep = torture_run () in
  let detected, tfields = torture_fields tcluster injected reads_ok srep in
  Printf.printf
    "torture: %d faults injected, %d detections, reads %s, scrub %d/%d \
     healthy after repair\n\
     %!"
    injected detected
    (if reads_ok then "all correct" else "WRONG BYTES")
    srep.Scrub.healthy srep.Scrub.scanned;
  ok :=
    !ok && injected > 0 && detected >= injected && reads_ok
    && srep.Scrub.unrepaired = 0;
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
                ("k", J_int 3);
                ("n", J_int 5);
                ("block_size", J_int 1024);
                ("overhead_duration_s", J_float (overhead_duration, 3));
                ("lag_duration_s", J_float (lag_duration, 3));
                ("lag_groups", J_int lag_groups);
                ("torture_slots", J_int torture_slots);
              ] );
          ( "overhead",
            J_obj
              [
                ("plain", J_obj (overhead_fields plain pf pok pm));
                ("verified", J_obj (overhead_fields verif vf vok vm));
                ("read_latency_overhead_pct", J_float (overhead_pct, 2));
              ] );
          ( "scrub_lag",
            J_arr (List.map (fun (rate, r) -> J_obj (lag_fields rate r)) tiers)
          );
          ("torture", J_obj tfields);
        ]
    in
    Report.write_file path doc;
    Printf.printf "wrote %s\n%!" path);
  if not !ok then exit 1
