(* CI smoke benchmark: one small simulated run with mild link faults —
   enough to exercise the full stack (erasure coding, protocol,
   retry/backoff, fault injection) in a few seconds of wall clock — with
   an optional machine-readable JSON summary for the CI artifact. *)

(* Allocation profile of the steady-state data plane: a separate
   no-fault cluster (so op counts and hence allocated-byte deltas
   are deterministic and the CI byte-identical-rerun check still holds),
   with manual remap so a crashed data node stays down for the degraded
   reads.  Reports GC bytes per op for write / read / degraded read plus
   the buffer-pool counter deltas across the measured writes: after the
   warm-up, every fan-out scratch block must come from the pool
   ([steady_misses] = 0 — CI asserts this). *)

open Ecs_volume

type alloc_profile = {
  ap_block_size : int;
  ap_ops : int;
  ap_write_bytes_per_op : int;
  ap_read_bytes_per_op : int;
  ap_degraded_bytes_per_op : int;
  ap_degraded_ok : bool;
  ap_steady_gets : int;
  ap_steady_hits : int;
  ap_steady_misses : int;
}

let alloc_profile () =
  let cfg = Config.make ~k:3 ~n:5 ~block_size:4096 () in
  let cluster = Shard_cluster.create ~seed:0xA11 ~remap_policy:`Manual cfg in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  let n_ops = 32 in
  let result = ref None in
  Shard_cluster.spawn cluster (fun () ->
      let bs = cfg.Config.block_size in
      (* Swap hands payload ownership to the data node, so alternate two
         constant buffers (never mutated, so stray aliases in
         recentlists stay valid). *)
      let payloads = [| Bytes.make bs 'a'; Bytes.make bs 'b' |] in
      let write x = Client.write client ~slot:0 ~i:0 payloads.(x land 1) in
      (* Warm-up: populate the stripe and grow the pool to its
         steady-state footprint. *)
      for x = 0 to 7 do
        write x
      done;
      ignore (Client.read client ~slot:0 ~i:0);
      let per_op a b = int_of_float ((b -. a) /. float_of_int n_ops) in
      let s0 = Buf_pool.stats () in
      let a0 = Bench_util.allocated_bytes () in
      for x = 0 to n_ops - 1 do
        write x
      done;
      let a1 = Bench_util.allocated_bytes () in
      let s1 = Buf_pool.stats () in
      for _ = 1 to n_ops do
        ignore (Client.read client ~slot:0 ~i:0)
      done;
      let a2 = Bench_util.allocated_bytes () in
      (* Crash the node holding data position 0 of slot 0; manual remap
         keeps it down, so reads must decode from survivors. *)
      let victim =
        Layout.node_of (Shard_cluster.group_layout cluster 0) ~stripe:0 ~pos:0
      in
      Shard_cluster.crash_node cluster victim;
      let ok = ref true in
      ignore (Client.read_degraded client ~slot:0 ~i:0);
      let a3 = Bench_util.allocated_bytes () in
      for _ = 1 to n_ops do
        match Client.read_degraded client ~slot:0 ~i:0 with
        | Some _ -> ()
        | None -> ok := false
      done;
      let a4 = Bench_util.allocated_bytes () in
      result :=
        Some
          {
            ap_block_size = bs;
            ap_ops = n_ops;
            ap_write_bytes_per_op = per_op a0 a1;
            ap_read_bytes_per_op = per_op a1 a2;
            ap_degraded_bytes_per_op = per_op a3 a4;
            ap_degraded_ok = !ok;
            ap_steady_gets = s1.Buf_pool.gets - s0.Buf_pool.gets;
            ap_steady_hits = s1.Buf_pool.hits - s0.Buf_pool.hits;
            ap_steady_misses = s1.Buf_pool.misses - s0.Buf_pool.misses;
          });
  Shard_cluster.run cluster;
  match !result with
  | Some p -> p
  | None -> failwith "alloc profile fiber did not finish"

let alloc_fields p =
  let open Report in
  [
    ( "alloc",
      J_obj
        [
          ("block_size", J_int p.ap_block_size);
          ("ops", J_int p.ap_ops);
          ("write_bytes_per_op", J_int p.ap_write_bytes_per_op);
          ("read_bytes_per_op", J_int p.ap_read_bytes_per_op);
          ("degraded_read_bytes_per_op", J_int p.ap_degraded_bytes_per_op);
          ("degraded_reads_ok", J_bool p.ap_degraded_ok);
          ( "pool",
            J_obj
              [
                ("steady_gets", J_int p.ap_steady_gets);
                ("steady_hits", J_int p.ap_steady_hits);
                ("steady_misses", J_int p.ap_steady_misses);
              ] );
        ] );
  ]

(* End-to-end integrity probe: a separate deterministic cluster with
   verified reads on.  Corrupt a data member and a redundant member of
   a written stripe; the verified read must still return the correct
   bytes (catch -> recover -> re-read), and a scrub sweep over the used
   stripes must end with everything healthy.  The probe's counters ride
   in the JSON summary so CI can assert detections >= injections. *)
type integrity_probe = {
  ip_injected : int;
  ip_node_detected : int;  (* node-side self-check catches (Stats) *)
  ip_verify_caught : int;  (* client-side verified-read catches *)
  ip_reads_ok : bool;
  ip_scrub : Scrub.report;
}

let integrity_probe () =
  let cluster, injected, reads_ok, scrub =
    Integrity_bench.torture_run ~seed:0xEC2 ~slots:4 ()
  in
  let stats = Shard_cluster.stats cluster in
  {
    ip_injected = injected;
    ip_node_detected =
      int_of_float
        (Stats.counter stats "integrity.node_detected"
        +. Stats.counter stats "integrity.node_stale");
    ip_verify_caught =
      Metrics.counter (Shard_cluster.group_metrics cluster 0)
        "read.verify_caught";
    ip_reads_ok = reads_ok;
    ip_scrub = scrub;
  }

let integrity_fields p =
  let open Report in
  [
    ( "integrity",
      J_obj
        [
          ("injected", J_int p.ip_injected);
          ("node_detected", J_int p.ip_node_detected);
          ("verify_caught", J_int p.ip_verify_caught);
          ("reads_ok", J_bool p.ip_reads_ok);
          ("scrub", J_obj (scrub_fields p.ip_scrub));
        ] );
  ]

let run ?json () =
  let cfg = Config.make ~k:3 ~n:5 ~block_size:1024 () in
  let faults = { Net.drop = 0.02; dup = 0.02; delay = 0.; jitter = 20e-6 } in
  let cluster =
    Shard_cluster.create ~remap_policy:`Auto ~seed:0xC1 ~faults cfg
  in
  let ck = Checker.create () in
  let { Vrunner.run = result; failures; _ } =
    Vrunner.run_profile ~check:ck ~blocks:64 ~sc:cluster
      ~tenants:
        (Vrunner.clients 4 (Profile.closed ~outstanding:4 ~write_frac:0.5 ()))
      ~duration:0.5 ()
  in
  Report.print_run ~label:"smoke 3-of-5, 2% loss + dup" result;
  Report.print_failures ~label:"smoke 3-of-5, 2% loss + dup" failures;
  let consistent =
    match Checker.check ck with Ok _ -> true | Error _ -> false
  in
  Printf.printf "history %s\n%!"
    (if consistent then "consistent (regular-register semantics)"
     else "INCONSISTENT");
  let stats = Shard_cluster.stats cluster in
  let c name = Stats.counter stats name in
  let prof = alloc_profile () in
  Printf.printf
    "alloc/op (B): write %d, read %d, degraded read %d; pool steady \
     gets/hits/misses %d/%d/%d\n%!"
    prof.ap_write_bytes_per_op prof.ap_read_bytes_per_op
    prof.ap_degraded_bytes_per_op prof.ap_steady_gets prof.ap_steady_hits
    prof.ap_steady_misses;
  let probe = integrity_probe () in
  Printf.printf
    "integrity: %d faults injected, %d node + %d client detections, reads \
     %s, scrub %d/%d healthy\n\
     %!"
    probe.ip_injected probe.ip_node_detected probe.ip_verify_caught
    (if probe.ip_reads_ok then "all correct" else "WRONG BYTES")
    probe.ip_scrub.Scrub.healthy probe.ip_scrub.Scrub.scanned;
  (match json with
  | None -> ()
  | Some path ->
    let open Report in
    let doc =
      J_obj
        ([
           ( "config",
             J_obj
               [
                 ("k", J_int cfg.Config.k);
                 ("n", J_int cfg.Config.n);
                 ("block_size", J_int cfg.Config.block_size);
               ] );
         ]
        @ Report.run_fields result
        @ Report.failure_fields failures
        @ [
            ("rpc_timeouts", J_float (c "rpc.timeout", 0));
            ("rpc_retries", J_float (c "rpc.retry", 0));
            ("faults_dropped", J_float (c "faults.dropped", 0));
            ("faults_duplicated", J_float (c "faults.duplicated", 0));
            ("history_consistent", J_bool consistent);
          ]
        @ alloc_fields prof
        @ integrity_fields probe
        @ [
            ( "metrics",
              J_raw
                (String.trim
                   (Metrics.to_json ~indent:"  "
                      (Shard_cluster.group_metrics cluster 0))) );
          ])
    in
    Report.write_file path doc;
    Printf.printf "wrote %s\n%!" path);
  if
    not
      (consistent && probe.ip_reads_ok
      && probe.ip_scrub.Scrub.unrepaired = 0)
  then exit 1
