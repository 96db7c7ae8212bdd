(* The structured trace layer: recovery phase-transition sequences,
   parent/child operation contexts, the metrics registry fed by the
   sink, and byte-determinism of the rendered metrics under a fixed
   simulation seed. *)

open Ecs_volume

let blk cfg c = Bytes.make cfg.Config.block_size c

let cfg_3_5 () =
  Config.make ~strategy:Config.Serial ~t_p:1 ~block_size:32 ~k:3 ~n:5 ()

let recording () =
  let events = ref [] in
  let sink ctx ev = events := (ctx, ev) :: !events in
  ((fun () -> List.rev !events), sink)

let test_recovery_phase_sequence () =
  let cfg = cfg_3_5 () in
  let direct = Direct_env.create cfg in
  let got, sink = recording () in
  let client = Direct_env.make_client ~sink direct ~id:0 in
  Client.write client ~slot:0 ~i:0 (blk cfg 'v');
  Direct_env.crash_node direct 0;
  Direct_env.remap_node direct 0;
  Client.recover_slot client ~slot:0;
  let recovery_events =
    List.filter_map
      (fun ((ctx : Trace.ctx), ev) ->
        if ctx.Trace.kind = Trace.Op_recovery then Some ev else None)
      (got ())
  in
  let shape =
    List.map
      (function
        | Trace.Op_begin -> "begin"
        | Trace.Op_end { ok; _ } -> if ok then "end" else "end-fail"
        | Trace.Recovery_phase p -> Trace.recovery_phase_to_string p
        | Trace.Repair_result { delta; _ } ->
          if delta then "repair-delta" else "repair-full"
        | e -> Trace.event_to_string e)
      recovery_events
  in
  (* One INIT replacement, everything else healthy: the delta probe
     bails (an INIT member can never be patched forward), then the
     Fig 6 path: lock sweep, state collection, straight to decode — no
     backoff, adoption or lock weakening — and the repair outcome is
     reported as a full rebuild. *)
  Alcotest.(check (list string))
    "phase sequence"
    [
      "begin"; "delta"; "lock"; "collect"; "decode"; "finalize";
      "repair-full"; "done"; "end";
    ]
    shape

let test_recovery_parented_to_read () =
  let cfg = cfg_3_5 () in
  let direct = Direct_env.create cfg in
  let got, sink = recording () in
  let client = Direct_env.make_client ~sink direct ~id:0 in
  Client.write client ~slot:0 ~i:0 (blk cfg 'p');
  Direct_env.crash_node direct 0;
  Direct_env.remap_node direct 0;
  ignore (Client.read client ~slot:0 ~i:0);
  let read_id = ref None and parent = ref None in
  List.iter
    (fun ((ctx : Trace.ctx), ev) ->
      match (ctx.Trace.kind, ev) with
      | Trace.Op_read, Trace.Op_begin -> read_id := Some ctx.Trace.op_id
      | Trace.Op_recovery, Trace.Op_begin -> parent := ctx.Trace.parent
      | _ -> ())
    (got ());
  Alcotest.(check bool) "read context seen" true (!read_id <> None);
  Alcotest.(check (option int)) "recovery parented to the read" !read_id !parent

let test_client_metrics () =
  let cfg = cfg_3_5 () in
  let direct = Direct_env.create cfg in
  let client = Direct_env.make_client direct ~id:0 in
  Client.write client ~slot:0 ~i:0 (blk cfg 'm');
  ignore (Client.read client ~slot:0 ~i:0);
  ignore (Client.read client ~slot:0 ~i:0);
  Client.collect_garbage client;
  let m = Client.metrics client in
  Alcotest.(check int) "writes" 1 (Metrics.counter m "op.write.count");
  Alcotest.(check int) "reads" 2 (Metrics.counter m "op.read.count");
  Alcotest.(check int) "gc rounds" 1 (Metrics.counter m "op.gc.count");
  Alcotest.(check int) "one recent-phase batch" 1
    (Metrics.counter m "gc.batches");
  Alcotest.(check int) "tid acked" 1 (Metrics.counter m "gc.tids_acked");
  let lat = Metrics.latency m Trace.Op_write in
  Alcotest.(check int) "write latency count" 1 lat.Metrics.l_count;
  Alcotest.(check bool) "write latency positive" true (lat.Metrics.l_total > 0.)

(* Two identically seeded faulty runs must render byte-identical
   metrics (the acceptance bar for `bench smoke --json`). *)
let metrics_of_seeded_run () =
  let cfg = Config.make ~k:3 ~n:5 ~block_size:256 () in
  let faults = { Net.drop = 0.05; dup = 0.02; delay = 0.; jitter = 20e-6 } in
  let cluster =
    Shard_cluster.create ~remap_policy:`Auto ~seed:0x7ACE ~faults cfg
  in
  let result =
    Vrunner.run_profile ~blocks:16 ~sc:cluster
      ~tenants:
        (Vrunner.clients 2 (Profile.closed ~outstanding:2 ~write_frac:0.5 ()))
      ~duration:0.1 ()
  in
  (result, Metrics.to_json (Shard_cluster.group_metrics cluster 0))

let test_metrics_deterministic () =
  let r1, j1 = metrics_of_seeded_run () in
  let r2, j2 = metrics_of_seeded_run () in
  Alcotest.(check string) "metrics JSON byte-identical" j1 j2;
  Alcotest.(check int) "runner retry counts agree" r1.Vrunner.run.rpc_retries
    r2.Vrunner.run.rpc_retries;
  Alcotest.(check bool) "faulty run did retry" true
    (r1.Vrunner.run.rpc_retries > 0)

let suite =
  ( "trace",
    [
      Alcotest.test_case "recovery phase sequence" `Quick
        test_recovery_phase_sequence;
      Alcotest.test_case "recovery parented to triggering read" `Quick
        test_recovery_parented_to_read;
      Alcotest.test_case "per-client metrics registry" `Quick
        test_client_metrics;
      Alcotest.test_case "metrics deterministic under fixed seed" `Quick
        test_metrics_deterministic;
    ] )
