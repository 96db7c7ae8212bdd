(* Tests for the workload library: profile request streams, the cluster
   environment, the runner's accounting, and table rendering. *)

open Ecs_volume

let closed = Profile.closed ~outstanding:1
let generator ?(seed = 1) ~blocks p = Profile.generator p ~seed ~blocks

let test_generator_random_mix () =
  let gen = generator ~blocks:10 (closed ~write_frac:0.3 ()) in
  let n = 2000 in
  let writes = ref 0 in
  for _ = 1 to n do
    let { Profile.op; block; _ } = Profile.next gen in
    Alcotest.(check bool) "block in range" true (block >= 0 && block < 10);
    if op = Profile.Op_write then incr writes
  done;
  let frac = float_of_int !writes /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "write fraction %.2f near 0.3" frac)
    true
    (frac > 0.25 && frac < 0.35)

let test_generator_sequential () =
  let gen = generator ~blocks:3 (closed ~sequential:true ~write_frac:1. ()) in
  let blocks = List.init 7 (fun _ -> (Profile.next gen).Profile.block) in
  Alcotest.(check (list int)) "wraps from block 0" [ 0; 1; 2; 0; 1; 2; 0 ]
    blocks

let test_generator_validation () =
  Alcotest.check_raises "bad frac"
    (Invalid_argument "Profile.generator: write_frac") (fun () ->
      ignore (generator ~blocks:1 (closed ~write_frac:1.5 ())));
  Alcotest.check_raises "no blocks"
    (Invalid_argument "Profile.generator: blocks") (fun () ->
      ignore (generator ~blocks:0 (closed ~write_frac:1. ())))

let test_generator_deterministic () =
  let mk () = generator ~seed:99 ~blocks:50 (closed ~write_frac:0.5 ()) in
  let a = mk () and b = mk () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "same stream" true (Profile.next a = Profile.next b)
  done

let test_generator_write_read_only () =
  let w = generator ~blocks:4 (closed ~write_frac:1. ()) in
  let r = generator ~blocks:4 (closed ~write_frac:0. ()) in
  for _ = 1 to 50 do
    Alcotest.(check bool) "write only" true
      ((Profile.next w).Profile.op = Profile.Op_write);
    Alcotest.(check bool) "read only" true
      ((Profile.next r).Profile.op = Profile.Op_read)
  done

let test_generator_zipf_skew () =
  let gen =
    generator ~seed:3 ~blocks:1000 (closed ~theta:0.8 ~write_frac:0.5 ())
  in
  let counts = Hashtbl.create 64 in
  let n = 5000 in
  for _ = 1 to n do
    let { Profile.block; _ } = Profile.next gen in
    Alcotest.(check bool) "in range" true (block >= 0 && block < 1000);
    Hashtbl.replace counts block (1 + Option.value (Hashtbl.find_opt counts block) ~default:0)
  done;
  (* Skew: the most popular block gets far more than the uniform share
     of 5 accesses, and far fewer than 1000 distinct blocks appear. *)
  let hottest = Hashtbl.fold (fun _ c m -> max c m) counts 0 in
  Alcotest.(check bool)
    (Printf.sprintf "hottest %d >> uniform share" hottest)
    true (hottest > 50);
  (* Head concentration: the 10 most popular blocks carry a large share
     of the traffic (uniform would give them ~1%). *)
  let all = Hashtbl.fold (fun _ c acc -> c :: acc) counts [] in
  let top10 =
    List.sort (fun a b -> compare b a) all
    |> List.filteri (fun i _ -> i < 10)
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "top-10 share %d/%d > 30%%" top10 n)
    true
    (float_of_int top10 /. float_of_int n > 0.3)

let test_generator_zipf_validation () =
  Alcotest.check_raises "theta" (Invalid_argument "Profile.generator: theta")
    (fun () ->
      ignore (generator ~blocks:10 (closed ~theta:1.5 ~write_frac:0.5 ())))

(* --- Shard_cluster transport (one group) ------------------------------ *)

let default_cfg () = Config.make ~t_p:1 ~block_size:64 ~k:2 ~n:4 ()
let transport cluster = Shard_cluster.transport cluster ~id:0 ~group:0

let test_cluster_client_env_calls () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (default_cfg ()) in
  let (module T : Transport.S) = transport cluster in
  let got = ref None in
  Shard_cluster.spawn cluster (fun () ->
      got := Some (T.call ~slot:0 ~pos:0 Proto.Read));
  Shard_cluster.run cluster;
  match !got with
  | Some (Ok (Proto.R_read { block = Some _; _ })) -> ()
  | _ -> Alcotest.fail "env call failed"

let test_cluster_crashed_client_raises () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (default_cfg ()) in
  let (module T : Transport.S) = transport cluster in
  Shard_cluster.crash_client cluster 0;
  let raised = ref false in
  Shard_cluster.spawn cluster (fun () ->
      try ignore (T.call ~slot:0 ~pos:0 Proto.Read)
      with Shard_cluster.Client_crashed 0 -> raised := true);
  Shard_cluster.run cluster;
  Alcotest.(check bool) "raised" true !raised

let test_cluster_auto_remap () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (default_cfg ()) in
  let (module T : Transport.S) = transport cluster in
  Shard_cluster.crash_node cluster 0;
  let got = ref None in
  Shard_cluster.spawn cluster (fun () ->
      got := Some (T.call ~slot:0 ~pos:0 Proto.Read));
  Shard_cluster.run cluster;
  (* Auto remap: the call reaches a fresh INIT node rather than failing. *)
  (match !got with
  | Some (Ok (Proto.R_read { block = None; _ })) -> ()
  | _ -> Alcotest.fail "expected INIT response after auto remap");
  Alcotest.(check int) "generation bumped" 1
    (Directory.generation (Shard_cluster.group_directory cluster 0) 0)

let test_cluster_manual_crash_window_is_timeout () =
  (* Crash without remap: the raw transport call must look like a lost
     message (`Timeout`, after the RPC timer), never a reliable
     `Node_down` — the request may have executed before the crash, and
     only the retry layer can resolve the ambiguity by resending. *)
  let cluster = Shard_cluster.create ~remap_policy:`Manual (default_cfg ()) in
  let (module T : Transport.S) = transport cluster in
  Shard_cluster.crash_node cluster 0;
  let got = ref None in
  let elapsed = ref 0. in
  Shard_cluster.spawn cluster (fun () ->
      let t0 = Fiber.now () in
      got := Some (T.call ~slot:0 ~pos:0 Proto.Read);
      elapsed := Fiber.now () -. t0);
  Shard_cluster.run cluster;
  (match !got with
  | Some (Error `Timeout) -> ()
  | _ -> Alcotest.fail "expected Timeout during the crash-window");
  Alcotest.(check bool)
    (Printf.sprintf "charged the RPC timer (%.4f s)" !elapsed)
    true
    (!elapsed >= Net.default_config.Net.rpc_timeout)

let test_cluster_manual_write_completes_after_restart () =
  (* A write issued while a data node is crashed-but-not-yet-remapped
     must ride the session retry loop across the outage and complete
     once the restart remaps the entry — no exception escapes the
     client fiber. *)
  let cfg = Config.make ~t_p:1 ~block_size:64 ~k:3 ~n:5 () in
  let cluster = Shard_cluster.create ~remap_policy:`Manual cfg in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  (* Down for 4 ms: several session resends land in the window, and the
     retry budget (8 resends, capped exponential backoff) outlasts it. *)
  Shard_cluster.schedule_outage cluster ~at:1.0e-4 ~node:0 ~down_for:4.0e-3;
  let wrote = ref false in
  Shard_cluster.spawn cluster (fun () ->
      Fiber.sleep 2.0e-4;
      Client.write client ~slot:0 ~i:0 (Bytes.make 64 'w');
      wrote := true);
  Shard_cluster.run cluster;
  Alcotest.(check bool) "write completed after restart" true !wrote;
  Alcotest.(check int) "restart remapped the entry" 1
    (Directory.generation (Shard_cluster.group_directory cluster 0) 0)

let test_cluster_pfor_parallel_timing () =
  (* pfor really is parallel: 4 sleeps of 10 ms take ~10 ms, not 40. *)
  let cluster = Shard_cluster.create ~remap_policy:`Auto (default_cfg ()) in
  let (module T : Transport.S) = transport cluster in
  let elapsed = ref 0. in
  Shard_cluster.spawn cluster (fun () ->
      let t0 = Fiber.now () in
      T.pfor (List.init 4 (fun _ () -> Fiber.sleep 0.01));
      elapsed := Fiber.now () -. t0);
  Shard_cluster.run cluster;
  Alcotest.(check bool)
    (Printf.sprintf "parallel (%.3f s)" !elapsed)
    true
    (!elapsed < 0.015)

let test_cluster_note_hooks () =
  let cfg = Config.make ~t_p:1 ~block_size:64 ~k:3 ~n:5 () in
  let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
  let events = ref [] in
  Shard_cluster.on_note cluster (fun _ e -> events := e :: !events);
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  Shard_cluster.spawn cluster (fun () ->
      Client.write client ~slot:0 ~i:0 (Bytes.make 64 'x');
      Shard_cluster.replace_node cluster 0;
      ignore (Client.read client ~slot:0 ~i:0));
  Shard_cluster.run cluster;
  Alcotest.(check bool) "saw recovery.start" true
    (List.mem "recovery.start" !events);
  Alcotest.(check bool) "saw recovery.done" true
    (List.mem "recovery.done" !events)

let test_cluster_deterministic () =
  let run () =
    let cluster =
      Shard_cluster.create ~remap_policy:`Auto ~seed:7 (default_cfg ())
    in
    let r =
      Vrunner.run_profile ~warmup:0.01 ~blocks:16 ~sc:cluster
        ~tenants:
          (Vrunner.clients 2 (Profile.closed ~outstanding:4 ~write_frac:0.5 ()))
        ~duration:0.05 ()
    in
    (r.Vrunner.run.read_ops, r.Vrunner.run.write_ops, r.Vrunner.run.msgs)
  in
  Alcotest.(check bool) "same results" true (run () = run ())

(* --- Vrunner accounting -------------------------------------------- *)

let test_runner_counts_and_throughput () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (default_cfg ()) in
  let r =
    Vrunner.run_profile ~warmup:0.01 ~blocks:32 ~sc:cluster
      ~tenants:
        (Vrunner.clients 2 (Profile.closed ~outstanding:4 ~write_frac:1. ()))
      ~duration:0.1 ()
  in
  Alcotest.(check int) "no reads in write-only" 0 r.Vrunner.run.read_ops;
  Alcotest.(check bool) "wrote something" true (r.Vrunner.run.write_ops > 100);
  let expect_mbs =
    float_of_int (r.Vrunner.run.write_ops * 64) /. 1e6 /. r.Vrunner.run.duration
  in
  Alcotest.(check (float 0.01)) "mbs consistent" expect_mbs
    r.Vrunner.run.write_mbs;
  Alcotest.(check bool) "latency positive" true
    (r.Vrunner.run.write_latency > 0.)

let test_runner_sampler () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (default_cfg ()) in
  let samples = ref 0 in
  ignore
    (Vrunner.run_profile ~warmup:0.0
       ~on_sample:(fun _ ~read_mbs:_ ~write_mbs -> if write_mbs >= 0. then incr samples)
       ~sample_every:0.02 ~blocks:8 ~sc:cluster
       ~tenants:
         (Vrunner.clients 1 (Profile.closed ~outstanding:2 ~write_frac:1. ()))
       ~duration:0.1 ());
  Alcotest.(check bool)
    (Printf.sprintf "%d samples ~5" !samples)
    true
    (!samples >= 4 && !samples <= 5)

let test_runner_events_fire () =
  let cluster = Shard_cluster.create ~remap_policy:`Auto (default_cfg ()) in
  let fired_at = ref (-1.) in
  ignore
    (Vrunner.run_profile ~warmup:0.0
       ~events:[ (0.05, fun cl -> fired_at := Shard_cluster.now cl) ]
       ~blocks:8 ~sc:cluster
       ~tenants:
         (Vrunner.clients 1 (Profile.closed ~outstanding:2 ~write_frac:1. ()))
       ~duration:0.1 ());
  Alcotest.(check (float 1e-6)) "event time" 0.05 !fired_at

(* --- Table rendering ------------------------------------------------ *)

let with_captured_stdout f =
  let tmp = Filename.temp_file "table" ".txt" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close fd)
    f;
  let ic = open_in tmp in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  Sys.remove tmp;
  s

let test_table_alignment () =
  let out =
    with_captured_stdout (fun () ->
        Table.print ~title:"t" ~header:[ "a"; "bb" ]
          [ [ "xxx"; "y" ]; [ "z"; "wwww" ] ])
  in
  Alcotest.(check bool) "has title" true
    (String.length out > 0
    &&
    let re = Str.regexp_string "== t ==" in
    (try ignore (Str.search_forward re out 0); true with Not_found -> false))

let test_fmt_f () =
  Alcotest.(check string) "zero" "0" (Table.fmt_f 0.);
  Alcotest.(check string) "big" "123" (Table.fmt_f 123.4);
  Alcotest.(check string) "mid" "12.30" (Table.fmt_f 12.3);
  Alcotest.(check string) "small" "0.0042" (Table.fmt_f 0.0042)

let test_print_series_union () =
  let out =
    with_captured_stdout (fun () ->
        Table.print_series ~title:"s" ~x_label:"x"
          ~series:[ ("a", [ (1., 10.) ]); ("b", [ (2., 20.) ]) ])
  in
  (* Union of xs: rows for 1 and 2, dashes where absent. *)
  Alcotest.(check bool) "has dash" true (String.contains out '-')

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "workload",
    [
      t "generator random mix fraction" test_generator_random_mix;
      t "generator sequential cycle" test_generator_sequential;
      t "generator validation" test_generator_validation;
      t "generator deterministic per seed" test_generator_deterministic;
      t "generator write/read only" test_generator_write_read_only;
      t "generator zipf skew" test_generator_zipf_skew;
      t "generator zipf validation" test_generator_zipf_validation;
      t "cluster env basic call" test_cluster_client_env_calls;
      t "crashed client raises" test_cluster_crashed_client_raises;
      t "auto remap on node death" test_cluster_auto_remap;
      t "manual crash-window surfaces Timeout"
        test_cluster_manual_crash_window_is_timeout;
      t "manual write completes after restart"
        test_cluster_manual_write_completes_after_restart;
      t "pfor runs thunks in parallel" test_cluster_pfor_parallel_timing;
      t "note hooks fire" test_cluster_note_hooks;
      t "cluster runs are deterministic" test_cluster_deterministic;
      t "runner counts and throughput" test_runner_counts_and_throughput;
      t "runner sampler cadence" test_runner_sampler;
      t "runner events fire on time" test_runner_events_fire;
      t "table alignment" test_table_alignment;
      t "fmt_f" test_fmt_f;
      t "print_series x union" test_print_series_union;
    ] )
