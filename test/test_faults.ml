(* Fault-injection layer tests: the Net-level fault machinery (loss,
   duplication, delay, one-way partitions, per-link overrides), the
   storage-node idempotence that makes client resends safe, the client's
   retry/backoff under a lossy cluster, and seed-replay determinism of a
   whole faulty run. *)

open Ecs_volume

let lossy = { Net.drop = 0.05; dup = 0.05; delay = 0.; jitter = 30e-6 }

let with_net f =
  let eng = Engine.create ~seed:42 () in
  let stats = Stats.create () in
  let net = Net.create eng stats in
  f eng stats net;
  Engine.run eng

(* ------------------------------------------------------------------ *)
(* Net level. *)

let test_drop_all () =
  with_net (fun eng stats net ->
      Net.set_faults net { Net.no_faults with drop = 1.0 };
      let a = Net.add_node net ~name:"a" and b = Net.add_node net ~name:"b" in
      let served = ref 0 in
      Fiber.spawn eng (fun () ->
          let t0 = Engine.now eng in
          let r =
            Net.rpc net ~src:a ~dst:b ~tag:"x" ~req_bytes:10 ~serve:(fun () ->
                incr served;
                ((), 10))
          in
          let elapsed = Engine.now eng -. t0 in
          Alcotest.(check bool) "timeout" true (r = Error Net.Timeout);
          Alcotest.(check bool) "serve never ran" true (!served = 0);
          let cfg = Net.config net in
          (* Send-side costs (CPU, NIC, fabric) accrue before the loss,
             so the wait is the rpc timer plus a small send overhead. *)
          Alcotest.(check bool)
            "caller waited out the rpc timer" true
            (elapsed >= cfg.Net.rpc_timeout
            && elapsed < cfg.Net.rpc_timeout +. 1e-3);
          Alcotest.(check bool)
            "dropped counted" true
            (Stats.counter stats "faults.dropped" >= 1.);
          Alcotest.(check bool)
            "timeout counted" true
            (Stats.counter stats "rpc.timeout" >= 1.)))

let test_dup_request_serves_twice () =
  with_net (fun eng stats net ->
      Net.set_faults net { Net.no_faults with dup = 1.0 };
      let a = Net.add_node net ~name:"a" and b = Net.add_node net ~name:"b" in
      let served = ref 0 in
      Fiber.spawn eng (fun () ->
          let r =
            Net.rpc net ~src:a ~dst:b ~tag:"x" ~req_bytes:10 ~serve:(fun () ->
                incr served;
                (!served, 10))
          in
          (* The first response is the one delivered. *)
          Alcotest.(check bool) "ok with first response" true (r = Ok 1);
          Alcotest.(check int) "request processed twice" 2 !served;
          Alcotest.(check bool)
            "duplication counted" true
            (Stats.counter stats "faults.duplicated" >= 1.)))

let test_slow_link_delay () =
  with_net (fun eng _stats net ->
      let d = 2e-3 in
      Net.set_faults net { Net.no_faults with delay = d };
      let a = Net.add_node net ~name:"a" and b = Net.add_node net ~name:"b" in
      Fiber.spawn eng (fun () ->
          let t0 = Engine.now eng in
          let r =
            Net.rpc net ~src:a ~dst:b ~tag:"x" ~req_bytes:10
              ~serve:(fun () -> ((), 10))
          in
          let rtt = Engine.now eng -. t0 in
          Alcotest.(check bool) "ok" true (r = Ok ());
          let cfg = Net.config net in
          (* Both directions pay the extra delay on top of propagation. *)
          Alcotest.(check bool)
            "rtt includes both extra delays" true
            (rtt >= (2. *. cfg.Net.latency) +. (2. *. d))))

let test_partition_oneway_and_heal () =
  with_net (fun eng _stats net ->
      let a = Net.add_node net ~name:"a" and b = Net.add_node net ~name:"b" in
      Net.partition net ~src:"a" ~dst:"b";
      let served = ref 0 in
      let call src dst =
        Net.rpc net ~src ~dst ~tag:"x" ~req_bytes:10 ~serve:(fun () ->
            incr served;
            ((), 10))
      in
      Fiber.spawn eng (fun () ->
          Alcotest.(check bool) "a->b blocked" true (call a b = Error Net.Timeout);
          Alcotest.(check int) "request never arrived" 0 !served;
          (* The cut is one-way: a b->a request gets through and is
             served — only its reply dies crossing the a->b direction. *)
          Alcotest.(check bool)
            "reverse request times out on the reply" true
            (call b a = Error Net.Timeout);
          Alcotest.(check int) "but it was served" 1 !served;
          Net.heal net ~src:"a" ~dst:"b";
          Alcotest.(check bool) "healed a->b" true (call a b = Ok ());
          Alcotest.(check bool) "healed b->a" true (call b a = Ok ())))

let test_partition_reply_direction () =
  with_net (fun eng _stats net ->
      let a = Net.add_node net ~name:"a" and b = Net.add_node net ~name:"b" in
      (* Cut only the reply path: the request is delivered and served,
         but the caller still times out — the retry ambiguity the
         protocol layer must absorb. *)
      Net.partition net ~src:"b" ~dst:"a";
      let served = ref 0 in
      Fiber.spawn eng (fun () ->
          let r =
            Net.rpc net ~src:a ~dst:b ~tag:"x" ~req_bytes:10 ~serve:(fun () ->
                incr served;
                ((), 10))
          in
          Alcotest.(check bool) "caller times out" true (r = Error Net.Timeout);
          Alcotest.(check int) "but serve ran" 1 !served))

let test_link_override_beats_default () =
  with_net (fun eng _stats net ->
      Net.set_faults net { Net.no_faults with drop = 1.0 };
      let a = Net.add_node net ~name:"a" and b = Net.add_node net ~name:"b" in
      Net.set_link_faults net ~src:"a" ~dst:"b" (Some Net.no_faults);
      Net.set_link_faults net ~src:"b" ~dst:"a" (Some Net.no_faults);
      let call () =
        Net.rpc net ~src:a ~dst:b ~tag:"x" ~req_bytes:10
          ~serve:(fun () -> ((), 10))
      in
      Fiber.spawn eng (fun () ->
          Alcotest.(check bool) "clean override wins" true (call () = Ok ());
          (* Clearing the override falls back to the lossy default. *)
          Net.set_link_faults net ~src:"a" ~dst:"b" None;
          Alcotest.(check bool) "default is back" true (call () = Error Net.Timeout)))

(* ------------------------------------------------------------------ *)
(* Storage-node idempotence: a retried swap is answered from the saved
   pre-swap value instead of being re-applied. *)

let test_swap_retry_returns_saved_value () =
  let store =
    Storage_node.create ~now:(fun () -> 0.) ~block_size:8 ~init:`Zeroed ()
  in
  let swap ~seq v =
    Storage_node.handle store ~caller:1 ~slot:0
      (Proto.Swap { v; ntid = { Proto.seq; blk = 0; client = 1 } })
  in
  let v1 = Bytes.make 8 'A' and v2 = Bytes.make 8 'B' in
  let old0 =
    match swap ~seq:1 v1 with
    | Proto.R_swap { block = Some b; _ } -> b
    | _ -> Alcotest.fail "first swap rejected"
  in
  Alcotest.(check string) "old value is initial" (String.make 8 '\000')
    (Bytes.to_string old0);
  (* Retry of the same swap: same old value, block not clobbered. *)
  (match swap ~seq:1 v1 with
  | Proto.R_swap { block = Some b; otid = None; _ } ->
    Alcotest.(check string) "retry returns saved old value"
      (Bytes.to_string old0) (Bytes.to_string b)
  | _ -> Alcotest.fail "swap retry rejected");
  Alcotest.(check string) "block holds the new value" (Bytes.to_string v1)
    (Bytes.to_string (Storage_node.peek_block store ~slot:0));
  (* A successor write, then a late duplicate of the first swap: the
     successor must not be clobbered and the saved value is stable. *)
  (match swap ~seq:2 v2 with
  | Proto.R_swap { block = Some b; _ } ->
    Alcotest.(check string) "successor sees v1" (Bytes.to_string v1)
      (Bytes.to_string b)
  | _ -> Alcotest.fail "successor swap rejected");
  (match swap ~seq:1 v1 with
  | Proto.R_swap { block = Some b; _ } ->
    Alcotest.(check string) "late duplicate still answered from the save"
      (Bytes.to_string old0) (Bytes.to_string b)
  | _ -> Alcotest.fail "late duplicate rejected");
  Alcotest.(check string) "successor value survives" (Bytes.to_string v2)
    (Bytes.to_string (Storage_node.peek_block store ~slot:0))

(* ------------------------------------------------------------------ *)
(* Cluster level: the client's retry/backoff rides over a lossy
   network and still reads back what it wrote. *)

let test_cluster_retry_under_loss () =
  let cfg = Config.make ~k:3 ~n:5 ~block_size:64 () in
  let cluster =
    Shard_cluster.create ~remap_policy:`Auto ~seed:7
      ~faults:{ lossy with drop = 0.15; dup = 0.1 } cfg
  in
  let written = Array.make 6 Bytes.empty in
  Shard_cluster.spawn cluster (fun () ->
      let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
      for b = 0 to 5 do
        let v = Bytes.make 64 (Char.chr (Char.code 'a' + b)) in
        written.(b) <- v;
        Client.write client ~slot:(b / 3) ~i:(b mod 3) v
      done;
      for b = 0 to 5 do
        Alcotest.(check string)
          (Printf.sprintf "block %d reads back" b)
          (Bytes.to_string written.(b))
          (Bytes.to_string (Client.read client ~slot:(b / 3) ~i:(b mod 3)))
      done);
  Shard_cluster.run cluster;
  let stats = Shard_cluster.stats cluster in
  Alcotest.(check bool)
    "some messages were dropped" true
    (Stats.counter stats "faults.dropped" > 0.);
  Alcotest.(check bool)
    "client retried after timeouts" true
    (Stats.counter stats "rpc.retry" > 0.)

(* ------------------------------------------------------------------ *)
(* Determinism: same seed + same fault spec => byte-identical stats and
   note trace across two independent runs. *)

let faulty_run seed =
  let cfg =
    Config.make ~k:3 ~n:5 ~block_size:64 ~stale_write_age:0.01 ()
  in
  let cluster =
    Shard_cluster.create ~remap_policy:`Auto ~seed ~faults:lossy cfg
  in
  let trace = Buffer.create 256 in
  Shard_cluster.on_note cluster (fun now event ->
      Buffer.add_string trace (Printf.sprintf "%.9f %s\n" now event));
  let ck = Checker.create () in
  let result =
    Vrunner.run_profile ~warmup:0.0 ~check:ck ~blocks:12 ~sc:cluster
      ~tenants:
        (Vrunner.clients 2 (Profile.closed ~outstanding:2 ~write_frac:0.5 ()))
      ~duration:0.05 ()
  in
  (match Checker.check ck with
  | Ok _ -> ()
  | Error violations ->
    Alcotest.failf "seed %d: %d violations" seed (List.length violations));
  let counters =
    Stats.counters (Shard_cluster.stats cluster)
    |> List.map (fun (name, v) -> Printf.sprintf "%s=%.6f" name v)
    |> String.concat "\n"
  in
  ( counters,
    Buffer.contents trace,
    result.Vrunner.run.read_ops,
    result.Vrunner.run.write_ops )

let test_seed_replay_determinism () =
  let c1, t1, r1, w1 = faulty_run 1234 in
  let c2, t2, r2, w2 = faulty_run 1234 in
  Alcotest.(check string) "identical counters" c1 c2;
  Alcotest.(check string) "identical note trace" t1 t2;
  Alcotest.(check int) "identical read count" r1 r2;
  Alcotest.(check int) "identical write count" w1 w2;
  (* The run actually exercised the fault machinery. *)
  Alcotest.(check bool) "faults fired" true
    (String.length t1 > 0 && r1 + w1 > 0)

let suite =
  ( "faults",
    [
      Alcotest.test_case "drop=1: timeout, serve never runs" `Quick
        test_drop_all;
      Alcotest.test_case "dup=1: request served twice" `Quick
        test_dup_request_serves_twice;
      Alcotest.test_case "slow link adds delay both ways" `Quick
        test_slow_link_delay;
      Alcotest.test_case "one-way partition blocks, heals" `Quick
        test_partition_oneway_and_heal;
      Alcotest.test_case "partitioned reply: served but timed out" `Quick
        test_partition_reply_direction;
      Alcotest.test_case "per-link override beats default" `Quick
        test_link_override_beats_default;
      Alcotest.test_case "swap retry answered from saved value" `Quick
        test_swap_retry_returns_saved_value;
      Alcotest.test_case "client retries through a lossy cluster" `Quick
        test_cluster_retry_under_loss;
      Alcotest.test_case "same seed replays byte-identically" `Quick
        test_seed_replay_determinism;
    ] )
