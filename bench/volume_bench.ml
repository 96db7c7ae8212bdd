(* Volume scaling benchmark: aggregate throughput and tail latency of a
   sharded volume as the stripe-group count G grows over a fixed pool,
   failure-free and with a crashed pool node being repaired by the
   background monitor.

   Deterministic: every run derives from fixed seeds, so the JSON
   summary is byte-identical across invocations (CI asserts this by
   running it twice and comparing).  The cost model makes storage-node
   work the bottleneck (heavy per-byte server cost), so the curve
   climbs near-linearly in G until the pool saturates — the scaling
   story of ROADMAP's "beyond one stripe group". *)

open Ecs_volume

let pool = 20
let group_counts = [ 1; 2; 4; 8 ]
let clients = 8
let outstanding = 16
let duration = 0.25
let block_size = 4096
let outage_at = 0.08
let outage_len = 0.05
let maintenance_budget = 4000.

(* stale_write_age must comfortably exceed the per-client GC drain time
   (two 0.05 s rounds), or probes flag healthy stripes whose completed
   tids are still mid-GC and trigger no-op repairs. *)
let cfg () =
  Config.make ~t_p:1 ~block_size ~k:3 ~n:5 ~stale_write_age:0.3
    ~costs:
      {
        Config.default_costs with
        delta_per_byte = 1.0e-9;
        add_per_byte = 100.0e-9;
      }
    ()

let one_run ~groups ~faulted =
  let placement =
    Placement.make ~seed:0x7ace ~groups ~nodes_per_group:5 ~pool ()
  in
  let sc = Shard_cluster.create ~seed:0xB0 ~placement (cfg ()) in
  let events =
    if not faulted then []
    else
      (* One crashed pool node per 8 groups (at least one): pick the
         hosts of the first members of groups 0, 8, ... *)
      List.init
        ((groups + 7) / 8)
        (fun i ->
          let victim = (Placement.group_nodes placement (8 * i)).(0) in
          ( outage_at,
            fun sc ->
              Shard_cluster.schedule_outage sc ~at:(Shard_cluster.now sc)
                ~node:victim ~down_for:outage_len ))
  in
  let ck = Checker.create () in
  let r =
    Vrunner.run_profile ~events ~background:(maintenance_budget, [ Monitor ])
      ~check:ck ~blocks:(256 * groups) ~sc
      ~tenants:
        (Vrunner.clients clients
           (Profile.closed ~outstanding ~write_frac:0.5 ()))
      ~duration ()
  in
  let consistent =
    match Checker.check ck with Ok _ -> true | Error _ -> false
  in
  (r, consistent)

let variant_fields (r : Vrunner.result) consistent =
  let bg = r.Vrunner.background in
  let open Report in
  run_fields r.Vrunner.run
  @ failure_fields r.Vrunner.failures
  @ [
      ("p99_read_ms", J_float (1000. *. r.Vrunner.pf_p99_read, 4));
      ("p99_write_ms", J_float (1000. *. r.Vrunner.pf_p99_write, 4));
      ("write_stalls", J_int r.Vrunner.failures.write_stuck);
      ("recoveries", J_float (r.Vrunner.run.Report.recoveries, 0));
      ("maintenance_passes", J_int bg.maintenance_passes);
      ("maintenance_gc_rounds", J_int bg.maintenance_gc_rounds);
      ("maintenance_errors", J_int bg.maintenance_errors);
      ("maintenance_recoveries", J_int bg.maintenance_recoveries);
      ("scrub_passes", J_int bg.scrub_passes);
      ("corruptions_injected", J_int r.Vrunner.corruptions_injected);
      ("corruptions_detected", J_int r.Vrunner.corruptions_detected);
      ("scrub", J_obj (scrub_fields bg.scrub_report));
      ( "repair",
        J_obj
          [
            ("delta_hits", J_int r.Vrunner.repair_delta_hits);
            ("full_rebuilds", J_int r.Vrunner.repair_full_rebuilds);
            ("bytes_read", J_int r.Vrunner.repair_bytes_read);
            ("bytes_shipped", J_int r.Vrunner.repair_bytes_shipped);
          ] );
      ("history_consistent", J_bool consistent);
    ]

(* ------------------------------------------------------------------ *)
(* Health experiments: hedged reads against a lossy-but-alive node, and
   full self-healing after an unannounced crash.  Both derive from fixed
   seeds, so their JSON is as deterministic as the scaling curve. *)

(* Full health stack (adaptive deadlines + hedging + breaker) vs the
   legacy configuration it replaced (fixed 1 ms loss-detection deadline,
   no hedging) on the same lossy-victim scenario. *)
let legacy_health =
  {
    Config.default_health with
    Config.timeout_floor = 1e-3;
    timeout_ceil = 1e-3;
    hedge = false;
  }

let hedge_run ~health =
  let placement =
    Placement.make ~seed:0x7ace ~groups:2 ~nodes_per_group:5 ~pool:8 ()
  in
  let cfg = Config.make ~t_p:1 ~block_size:512 ~k:3 ~n:5 ~health () in
  let sc = Shard_cluster.create ~seed:0x1e ~placement cfg in
  let victim = (Placement.group_nodes placement 0).(0) in
  let events =
    [
      ( 0.05,
        fun sc ->
          for c = 0 to 3 do
            Shard_cluster.set_pool_link_faults sc ~client:c ~node:victim
              (Some { Net.no_faults with Net.drop = 0.4 })
          done );
    ]
  in
  let ck = Checker.create () in
  let r =
    Vrunner.run_profile ~events ~check:ck ~blocks:64 ~sc
      ~tenants:
        (Vrunner.clients 4 (Profile.closed ~outstanding:4 ~write_frac:0.3 ()))
      ~duration:0.3 ()
  in
  let consistent =
    match Checker.check ck with Ok _ -> true | Error _ -> false
  in
  (r, consistent)

let heal_crash_at = 0.08

let self_heal_run () =
  let placement =
    Placement.make ~seed:0x7ace ~groups:4 ~nodes_per_group:5 ~pool:12 ()
  in
  let sc =
    Shard_cluster.create ~seed:0x0c ~placement
      (Config.make ~t_p:1 ~block_size:512 ~k:3 ~n:5 ())
  in
  let down = (Placement.group_nodes placement 0).(0) in
  let events = [ (heal_crash_at, fun sc -> Shard_cluster.crash_node sc down) ] in
  let ck = Checker.create () in
  let r =
    Vrunner.run_profile ~events ~background:(4000., [ Monitor; Supervise ])
      ~check:ck ~blocks:128 ~sc
      ~tenants:
        (Vrunner.clients 4 (Profile.closed ~outstanding:4 ~write_frac:0.5 ()))
      ~duration:0.4 ()
  in
  let consistent =
    match Checker.check ck with Ok _ -> true | Error _ -> false
  in
  (down, r, consistent)

let health_entries () =
  let hedged, h_ok = hedge_run ~health:Config.default_health in
  let unhedged, u_ok = hedge_run ~health:legacy_health in
  Report.print_run ~label:"degraded reads (full health)" hedged.Vrunner.run;
  Report.print_failures ~label:"degraded reads (full health)"
    hedged.Vrunner.failures;
  Report.print_run ~label:"degraded reads (legacy)" unhedged.Vrunner.run;
  Printf.printf "%-34s    p99 read %.2f ms full vs %.2f ms legacy\n%!" ""
    (1000. *. hedged.Vrunner.pf_p99_read)
    (1000. *. unhedged.Vrunner.pf_p99_read);
  let down, heal, heal_ok = self_heal_run () in
  let bg = heal.Vrunner.background in
  let detect_latency =
    match List.assoc_opt down bg.detections with
    | Some t -> Some (t -. heal_crash_at)
    | None -> None
  in
  let mttr =
    match List.assoc_opt down bg.repaired_at with
    | Some t -> Some (t -. heal_crash_at)
    | None -> None
  in
  Report.print_run ~label:"self-healing (crash, no remap)" heal.Vrunner.run;
  Printf.printf
    "%-34s    detected %+.2f ms, repaired %+.2f ms after crash | failovers \
     %d, repairs %d | consistent %b\n\
     %!"
    ""
    (match detect_latency with Some d -> 1000. *. d | None -> nan)
    (match mttr with Some d -> 1000. *. d | None -> nan)
    bg.supervisor_failovers bg.supervisor_repairs heal_ok;
  let opt_ms = function
    | Some d -> Report.J_float (1000. *. d, 4)
    | None -> Report.J_raw "null"
  in
  let open Report in
  [
    ( "hedging",
      J_obj
        [
          ("full", J_obj (variant_fields hedged h_ok));
          ("legacy", J_obj (variant_fields unhedged u_ok));
        ] );
    ( "self_healing",
      J_obj
        (variant_fields heal heal_ok
        @ [
            ("detection_latency_ms", opt_ms detect_latency);
            ("mttr_ms", opt_ms mttr);
            ("supervisor_failovers", J_int bg.supervisor_failovers);
            ("supervisor_repairs", J_int bg.supervisor_repairs);
            ("supervisor_false_alarms", J_int bg.supervisor_false_alarms);
          ]) );
  ]
  |> fun fields -> (fields, h_ok && u_ok && heal_ok)

let run ?json () =
  let ok = ref true in
  let entries =
    List.map
      (fun groups ->
        let clean, clean_ok = one_run ~groups ~faulted:false in
        let faulted, faulted_ok = one_run ~groups ~faulted:true in
        ok := !ok && clean_ok && faulted_ok;
        Report.print_run
          ~label:(Printf.sprintf "volume G=%d (failure-free)" groups)
          clean.Vrunner.run;
        Report.print_run
          ~label:(Printf.sprintf "volume G=%d (1 node crashed)" groups)
          faulted.Vrunner.run;
        Printf.printf
          "%-34s    p99 write %.2f -> %.2f ms | maintenance passes %d, \
           recoveries %d | consistent %b/%b\n\
           %!"
          ""
          (1000. *. clean.Vrunner.pf_p99_write)
          (1000. *. faulted.Vrunner.pf_p99_write)
          faulted.Vrunner.background.maintenance_passes
          faulted.Vrunner.background.maintenance_recoveries clean_ok
          faulted_ok;
        let open Report in
        J_obj
          [
            ("groups", J_int groups);
            ("pool", J_int pool);
            ("failure_free", J_obj (variant_fields clean clean_ok));
            ("faulted", J_obj (variant_fields faulted faulted_ok));
          ])
      group_counts
  in
  let health_fields, health_ok = health_entries () in
  ok := !ok && health_ok;
  (match json with
  | None -> ()
  | Some path ->
    let c = cfg () in
    let open Report in
    let doc =
      J_obj
        ([
          ( "config",
            J_obj
              [
                ("k", J_int c.Config.k);
                ("n", J_int c.Config.n);
                ("block_size", J_int c.Config.block_size);
                ("pool", J_int pool);
                ("clients", J_int clients);
                ("outstanding", J_int outstanding);
                ("duration_s", J_float (duration, 3));
                ("maintenance_ops_per_sec", J_float (maintenance_budget, 0));
                ("outage_len_s", J_float (outage_len, 3));
              ] );
          ("curve", J_arr entries);
        ]
        @ health_fields)
    in
    Report.write_file path doc;
    Printf.printf "wrote %s\n%!" path);
  if not !ok then exit 1
