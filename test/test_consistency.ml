(* Randomized whole-system consistency tests: concurrent clients issue
   random reads and writes (with crash injection) and every completed
   read is validated against multi-writer regular-register semantics
   (Sec 3.1) by the history checker. *)

open Ecs_volume

let check_history name ck =
  match Checker.check ck with
  | Ok _ -> ()
  | Error violations ->
    Alcotest.failf "%s: %d violations, first: %s" name (List.length violations)
      (match violations with v :: _ -> v | [] -> "?")

(* --- Checker self-tests -------------------------------------------- *)

let test_checker_accepts_sequential () =
  let ck = Checker.create () in
  Checker.record_write ck ~block:0 ~tag:1 ~start:0.0 ~finish:(Some 1.0);
  Checker.record_read ck ~block:0 ~tag:1 ~start:2.0 ~finish:3.0;
  check_history "sequential" ck

let test_checker_rejects_stale_read () =
  let ck = Checker.create () in
  Checker.record_write ck ~block:0 ~tag:1 ~start:0.0 ~finish:(Some 1.0);
  Checker.record_write ck ~block:0 ~tag:2 ~start:2.0 ~finish:(Some 3.0);
  (* Read starts after write 2 completed but returns write 1: illegal. *)
  Checker.record_read ck ~block:0 ~tag:1 ~start:4.0 ~finish:5.0;
  match Checker.check ck with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stale read must be rejected"

let test_checker_allows_concurrent_either () =
  let ck = Checker.create () in
  Checker.record_write ck ~block:0 ~tag:1 ~start:0.0 ~finish:(Some 1.0);
  Checker.record_write ck ~block:0 ~tag:2 ~start:2.0 ~finish:(Some 4.0);
  (* Read concurrent with write 2 may return 1 or 2. *)
  Checker.record_read ck ~block:0 ~tag:1 ~start:2.5 ~finish:3.0;
  Checker.record_read ck ~block:0 ~tag:2 ~start:2.5 ~finish:3.5;
  check_history "concurrent" ck

let test_checker_rejects_phantom () =
  let ck = Checker.create () in
  Checker.record_read ck ~block:0 ~tag:99 ~start:0.0 ~finish:1.0;
  match Checker.check ck with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "phantom value must be rejected"

let test_checker_initial_value () =
  let ck = Checker.create () in
  Checker.record_read ck ~block:0 ~tag:0 ~start:0.0 ~finish:1.0;
  check_history "initial ok" ck;
  let ck2 = Checker.create () in
  Checker.record_write ck2 ~block:0 ~tag:1 ~start:0.0 ~finish:(Some 1.0);
  Checker.record_read ck2 ~block:0 ~tag:0 ~start:2.0 ~finish:3.0;
  (match Checker.check ck2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "initial after completed write is stale")

let test_checker_incomplete_write () =
  let ck = Checker.create () in
  Checker.record_write ck ~block:0 ~tag:1 ~start:0.0 ~finish:None;
  (* Reads may return it forever (it is concurrent with everything). *)
  Checker.record_read ck ~block:0 ~tag:1 ~start:5.0 ~finish:6.0;
  Checker.record_read ck ~block:0 ~tag:0 ~start:7.0 ~finish:8.0;
  check_history "incomplete write flickers legally" ck

let test_tag_block_roundtrip () =
  let b = Checker.tag_block ~size:64 ~tag:123456 in
  Alcotest.(check int) "tag" 123456 (Checker.tag_of_block b);
  Alcotest.(check int) "initial block tag" 0
    (Checker.tag_of_block (Bytes.make 64 '\000'))

(* --- Whole-system randomized histories ------------------------------ *)

let random_history_run ~strategy ~seed ~clients ~crash_storage ~crash_client ()
    =
  let cfg =
    Config.make ~strategy ~t_p:1 ~block_size:64 ~k:3 ~n:5
      ~monitor_interval:0.02 ~stale_write_age:0.01 ()
  in
  let cluster = Shard_cluster.create ~remap_policy:`Auto ~seed cfg in
  let ck = Checker.create () in
  let events = ref [] in
  if crash_storage then
    events := (0.02, fun cl -> Shard_cluster.replace_node cl 1) :: !events;
  if crash_client then
    events := (0.03, fun cl -> Shard_cluster.crash_client cl 0) :: !events;
  let result =
    Vrunner.run_profile ~warmup:0.0 ~events:!events ~check:ck ~blocks:12
      ~sc:cluster
      ~tenants:
        (Vrunner.clients clients
           (Profile.closed ~outstanding:2 ~write_frac:0.5 ()))
      ~duration:0.12 ()
  in
  (* If a client crashed mid-run there may be torn stripes; run the
     monitor from a fresh client to restore full redundancy, then check
     the recorded history. *)
  if crash_client || crash_storage then begin
    let fixer = Shard_cluster.make_group_client cluster ~id:77 ~group:0 in
    Shard_cluster.spawn cluster (fun () ->
        Fiber.sleep 0.05;
        Client.monitor_once fixer ~slots:(List.init 4 Fun.id));
    Shard_cluster.run cluster
  end;
  Alcotest.(check bool) "made progress"
    true
    (result.Vrunner.run.read_ops + result.Vrunner.run.write_ops > 20);
  check_history
    (Printf.sprintf "history seed=%d" seed)
    ck

let test_random_histories_failure_free () =
  List.iter
    (fun seed ->
      random_history_run ~strategy:Config.Parallel ~seed ~clients:3
        ~crash_storage:false ~crash_client:false ())
    [ 1; 2; 3; 4; 5 ]

let test_random_histories_serial () =
  random_history_run ~strategy:Config.Serial ~seed:11 ~clients:3
    ~crash_storage:false ~crash_client:false ()

let test_random_histories_bcast () =
  random_history_run ~strategy:Config.Bcast ~seed:12 ~clients:3
    ~crash_storage:false ~crash_client:false ()

let test_random_histories_hybrid () =
  random_history_run ~strategy:(Config.Hybrid 1) ~seed:13 ~clients:3
    ~crash_storage:false ~crash_client:false ()

let test_random_histories_with_storage_crash () =
  List.iter
    (fun seed ->
      random_history_run ~strategy:Config.Parallel ~seed ~clients:3
        ~crash_storage:true ~crash_client:false ())
    [ 21; 22; 23 ]

let test_random_histories_with_client_crash () =
  List.iter
    (fun seed ->
      random_history_run ~strategy:Config.Parallel ~seed ~clients:3
        ~crash_storage:false ~crash_client:true ())
    [ 31; 32; 33 ]

let test_random_histories_both_crashes () =
  random_history_run ~strategy:Config.Parallel ~seed:41 ~clients:4
    ~crash_storage:true ~crash_client:true ()

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "consistency",
    [
      t "checker accepts sequential" test_checker_accepts_sequential;
      t "checker rejects stale read" test_checker_rejects_stale_read;
      t "checker allows concurrent either" test_checker_allows_concurrent_either;
      t "checker rejects phantom value" test_checker_rejects_phantom;
      t "checker initial-value rules" test_checker_initial_value;
      t "checker incomplete write" test_checker_incomplete_write;
      t "tag block roundtrip" test_tag_block_roundtrip;
      t "random histories, failure-free x5" test_random_histories_failure_free;
      t "random history, serial strategy" test_random_histories_serial;
      t "random history, bcast strategy" test_random_histories_bcast;
      t "random history, hybrid strategy" test_random_histories_hybrid;
      t "random histories + storage crash x3" test_random_histories_with_storage_crash;
      t "random histories + client crash x3" test_random_histories_with_client_crash;
      t "random history + both crashes" test_random_histories_both_crashes;
    ] )
