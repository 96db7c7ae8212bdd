(* Torture tests: randomized crash schedules (storage nodes and clients)
   and network-fault cocktails (loss, duplication, jitter, one-way
   partitions, crash/restart outages) over a running workload, across
   seeds, codes and strategies.  After each run the scrubber repairs
   residual damage and we assert:
   - the recorded history satisfies regular-register semantics,
   - every stripe is white-box consistent with the erasure code,
   - the scrubber reports nothing unrepairable.

   These runs stay within the Sec 4 failure envelope (at most t_p client
   crashes and t_d concurrent storage crashes), which is the regime the
   paper's theorems promise to survive.  Message faults are outside the
   paper's fail-stop model; the retry/backoff layer reduces them to
   crashes-or-delays, so the same assertions must hold.  Every run is
   deterministic in its seed: a failure replays exactly. *)

(* CI chaos matrix: ECS_SEED_OFFSET shifts every hardcoded seed so each
   matrix job explores a different deterministic slice of crash/fault
   schedules while any failure still replays exactly from its shifted
   seed. *)

open Ecs_volume
open Sim_harness

let seed_offset =
  match Sys.getenv_opt "ECS_SEED_OFFSET" with
  | Some s -> ( try int_of_string s with _ -> 0)
  | None -> 0

(* [faults] installs a default link policy for the whole run.
   [partitions] are (at, src_site, dst_site, heal_after) one-way cuts.
   [outages] are (at, node, down_for) crash/restart schedules.
   [blips] are (at, node, down_for) crash/revive schedules — the node
   returns with its state intact and must catch up (delta repair when
   eligible) instead of being rebuilt from scratch.
   [min_ops] lowers the progress bar for runs where timeouts legitimately
   eat throughput. *)
let torture ?faults ?(remap_policy = `Auto) ?(partitions = []) ?(outages = [])
    ?(blips = []) ?(min_ops = 50) ~field ~seed ~strategy ~k ~n ~t_p
    ~storage_crashes ~client_crashes () =
  let seed = seed + seed_offset in
  let cfg =
    Config.make ~field ~strategy ~t_p ~block_size:64 ~k ~n ~stale_write_age:0.01
      ()
  in
  let cluster = Shard_cluster.create ~seed ~remap_policy ?faults cfg in
  let ck = Checker.create () in
  let rng = Random.State.make [| seed |] in
  let clients = 3 in
  let blocks = 8 * k in
  let stripes = (blocks + k - 1) / k in
  (* Random crash schedule within the measurement window. *)
  let events = ref [] in
  for c = 0 to storage_crashes - 1 do
    let at = 0.02 +. Random.State.float rng 0.06 in
    let node = Random.State.int rng n in
    ignore c;
    events := (at, fun cl -> Shard_cluster.replace_node cl node) :: !events
  done;
  for c = 0 to client_crashes - 1 do
    let at = 0.02 +. Random.State.float rng 0.06 in
    let victim = Random.State.int rng clients in
    ignore c;
    events := (at, fun cl -> Shard_cluster.crash_client cl victim) :: !events
  done;
  List.iter
    (fun (at, src, dst, heal_after) ->
      events := (at, fun cl -> Net.partition (Shard_cluster.net cl) ~src ~dst)
        :: !events;
      events :=
        (at +. heal_after, fun cl -> Net.heal (Shard_cluster.net cl) ~src ~dst)
        :: !events)
    partitions;
  List.iter
    (fun (at, node, down_for) ->
      Shard_cluster.schedule_outage cluster ~at ~node ~down_for)
    outages;
  List.iter
    (fun (at, node, down_for) ->
      Shard_cluster.schedule_blip cluster ~at ~node ~down_for)
    blips;
  let result =
    Vrunner.run_profile ~warmup:0.0 ~events:!events ~check:ck ~blocks
      ~sc:cluster
      ~tenants:
        (Vrunner.clients clients
           (Profile.closed ~outstanding:2 ~write_frac:0.5 ()))
      ~duration:0.15 ()
  in
  (* Post-run repair pass from a fresh client, then verify everything.
     Any still-open partition would wrongly read as an unrepairable
     stripe, so heal first; probabilistic faults stay on — the repair
     path must work through them too. *)
  Net.heal_all (Shard_cluster.net cluster);
  let fixer = Shard_cluster.make_group_client cluster ~id:50 ~group:0 in
  let report = ref None in
  Shard_cluster.spawn cluster (fun () ->
      Fiber.sleep 0.05;
      (* Touch every slot/pos once so INIT replacements materialize. *)
      Client.monitor_once fixer ~slots:(List.init stripes Fun.id);
      report := Some (Scrub.scrub fixer ~slots:(List.init stripes Fun.id)));
  Shard_cluster.run cluster;
  let report =
    match !report with Some r -> r | None -> Alcotest.fail "scrub did not run"
  in
  Alcotest.(check int)
    (Printf.sprintf "seed %d: nothing unrepairable" seed)
    0 report.Scrub.unrepaired;
  for slot = 0 to stripes - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "seed %d stripe %d consistent" seed slot)
      true
      (stripe_consistent cluster ~slot)
  done;
  (match Checker.check ck with
  | Ok _ -> ()
  | Error violations ->
    Alcotest.failf "seed %d: %d consistency violations, first: %s" seed
      (List.length violations) (List.hd violations));
  Alcotest.(check bool)
    (Printf.sprintf "seed %d made progress" seed)
    true
    (result.Vrunner.run.read_ops + result.Vrunner.run.write_ops > min_ops)

let test_storage_crash_seeds ~field () =
  List.iter
    (fun seed ->
      torture ~field ~seed ~strategy:Config.Parallel ~k:3 ~n:5 ~t_p:1
        ~storage_crashes:1 ~client_crashes:0 ())
    [ 101; 102; 103; 104 ]

let test_client_crash_seeds ~field () =
  List.iter
    (fun seed ->
      torture ~field ~seed ~strategy:Config.Parallel ~k:3 ~n:5 ~t_p:1
        ~storage_crashes:0 ~client_crashes:1 ())
    [ 201; 202; 203; 204 ]

let test_combined_crash_seeds ~field () =
  List.iter
    (fun seed ->
      torture ~field ~seed ~strategy:Config.Parallel ~k:3 ~n:5 ~t_p:1
        ~storage_crashes:1 ~client_crashes:1 ())
    [ 301; 302; 303 ]

let test_serial_strategy_crashes ~field () =
  List.iter
    (fun seed ->
      torture ~field ~seed ~strategy:Config.Serial ~k:3 ~n:5 ~t_p:1 ~storage_crashes:1
        ~client_crashes:1 ())
    [ 401; 402 ]

let test_bcast_strategy_crashes ~field () =
  List.iter
    (fun seed ->
      torture ~field ~seed ~strategy:Config.Bcast ~k:3 ~n:5 ~t_p:1 ~storage_crashes:1
        ~client_crashes:0 ())
    [ 501; 502 ]

let test_larger_code_crashes ~field () =
  (* 6-of-10 (p=4) with t_p=1 parallel tolerates t_d=2: crash two. *)
  List.iter
    (fun seed ->
      torture ~field ~seed ~strategy:Config.Parallel ~k:6 ~n:10 ~t_p:1
        ~storage_crashes:2 ~client_crashes:1 ())
    [ 601; 602 ]

let test_hybrid_strategy_crashes ~field () =
  torture ~field ~seed:701 ~strategy:(Config.Hybrid 2) ~k:4 ~n:8 ~t_p:1
    ~storage_crashes:1 ~client_crashes:1 ()

(* ------------------------------------------------------------------ *)
(* Network-fault matrix: 5% loss + 5% duplication + jitter on every
   link, across update strategies, optionally combined with crashes,
   one-way partitions and crash/restart outages.  Timeouts slow the run
   down, hence the lower progress bars. *)

let lossy = { Net.drop = 0.05; dup = 0.05; delay = 0.; jitter = 30e-6 }

let test_faults_parallel ~field () =
  List.iter
    (fun seed ->
      torture ~field ~faults:lossy ~min_ops:30 ~seed ~strategy:Config.Parallel ~k:3
        ~n:5 ~t_p:1 ~storage_crashes:0 ~client_crashes:0 ())
    [ 801; 802; 803 ]

let test_faults_serial ~field () =
  List.iter
    (fun seed ->
      torture ~field ~faults:lossy ~min_ops:30 ~seed ~strategy:Config.Serial ~k:3 ~n:5
        ~t_p:1 ~storage_crashes:0 ~client_crashes:0 ())
    [ 811; 812 ]

let test_faults_with_crashes ~field () =
  List.iter
    (fun seed ->
      torture ~field ~faults:lossy ~min_ops:20 ~seed ~strategy:Config.Parallel ~k:3
        ~n:5 ~t_p:1 ~storage_crashes:1 ~client_crashes:1 ())
    [ 821; 822 ]

let test_partition_heal ~field () =
  (* One-way cuts between a client and a storage node, both directions
     in turn: lost requests (serve never runs) and lost replies (serve
     runs, caller times out).  Healed well before the run ends. *)
  List.iter
    (fun seed ->
      torture ~field ~min_ops:40 ~seed ~strategy:Config.Parallel ~k:3 ~n:5 ~t_p:1
        ~storage_crashes:0 ~client_crashes:0
        ~partitions:
          [
            (0.03, Shard_cluster.client_site 0, Shard_cluster.pool_site 0,
              0.02);
            (0.06, Shard_cluster.pool_site 1, Shard_cluster.client_site 1,
              0.02);
          ]
        ())
    [ 831; 832 ]

let test_outage_restart ~field () =
  (* Crash/restart schedule under background loss: the node comes back
     (or is remapped first under the `Auto policy) as a fresh INIT
     replacement that re-enters service via the monitoring path. *)
  torture ~field ~faults:lossy ~min_ops:20 ~seed:841 ~strategy:Config.Parallel ~k:3
    ~n:5 ~t_p:1 ~storage_crashes:0 ~client_crashes:0
    ~outages:[ (0.03, 2, 0.03) ]
    ()

let test_flapping_node ~field () =
  (* Crash/revive flapping: nodes blink out and return with their state
     intact (Shard_cluster.schedule_blip), repeatedly.  `Manual remap keeps
     the corpse in the directory across each blip — under `Auto the
     first contact would replace it with a fresh INIT node and there
     would be nothing to catch up.  The returning member is epoch-stale
     whenever recovery folded writes forward while it was away; the
     catch-up (delta repair when eligible, full rebuild otherwise) must
     leave every stripe code-consistent and the history regular.  Low
     progress bar: writes against a blinked-out redundant member
     legitimately stall until it returns. *)
  List.iter
    (fun seed ->
      torture ~field ~remap_policy:`Manual ~min_ops:15 ~seed
        ~strategy:Config.Parallel ~k:3 ~n:5 ~t_p:1 ~storage_crashes:0
        ~client_crashes:0
        ~blips:[ (0.03, 2, 0.015); (0.06, 2, 0.02); (0.05, 4, 0.025) ]
        ())
    [ 851; 852; 853 ]

(* The whole matrix runs once per field: the protocol layer is
   field-oblivious, so the same crash/fault schedules must produce the
   same guarantees over GF(2^8) and GF(2^16). *)
let suite =
  let t name f = Alcotest.test_case name `Slow f in
  let cases field tag =
    [
      t (tag ^ "random storage crashes x4 seeds") (test_storage_crash_seeds ~field);
      t (tag ^ "random client crashes x4 seeds") (test_client_crash_seeds ~field);
      t (tag ^ "combined crashes x3 seeds") (test_combined_crash_seeds ~field);
      t (tag ^ "serial strategy under crashes x2") (test_serial_strategy_crashes ~field);
      t (tag ^ "bcast strategy under crashes x2") (test_bcast_strategy_crashes ~field);
      t (tag ^ "6-of-10, two storage crashes x2") (test_larger_code_crashes ~field);
      t (tag ^ "hybrid strategy under crashes") (test_hybrid_strategy_crashes ~field);
      t (tag ^ "5% loss+dup+jitter, parallel x3 seeds") (test_faults_parallel ~field);
      t (tag ^ "5% loss+dup+jitter, serial x2 seeds") (test_faults_serial ~field);
      t (tag ^ "faults combined with crashes x2 seeds") (test_faults_with_crashes ~field);
      t (tag ^ "one-way partitions with heal x2 seeds") (test_partition_heal ~field);
      t (tag ^ "crash/restart outage under loss") (test_outage_restart ~field);
      t (tag ^ "flapping node, state-kept revives x3 seeds")
        (test_flapping_node ~field);
    ]
  in
  ("torture", cases `Gf8 "gf8: " @ cases `Gf16 "gf16: ")
