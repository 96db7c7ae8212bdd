(* Tests for the discrete-event engine, fibers, resources, and network. *)

let test_heap_ordering () =
  let h = Pairing_heap.create () in
  List.iter (fun (t, v) -> Pairing_heap.add h ~time:t v)
    [ (3.0, "c"); (1.0, "a"); (2.0, "b"); (1.0, "a2") ];
  let pop () =
    match Pairing_heap.pop_min h with
    | Some (_, v) -> v
    | None -> Alcotest.fail "empty"
  in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "fifo tie" "a2" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "empty" true (Pairing_heap.is_empty h)

let test_heap_many () =
  let h = Pairing_heap.create () in
  let rng = Random.State.make [| 7 |] in
  let times = List.init 1000 (fun _ -> Random.State.float rng 100.) in
  List.iter (fun t -> Pairing_heap.add h ~time:t t) times;
  Alcotest.(check int) "size" 1000 (Pairing_heap.size h);
  let rec drain last acc =
    match Pairing_heap.pop_min h with
    | None -> acc
    | Some (t, _) ->
      Alcotest.(check bool) "monotonic" true (t >= last);
      drain t (acc + 1)
  in
  Alcotest.(check int) "drained all" 1000 (drain neg_infinity 0)

let test_engine_ordering () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~at:2.0 (fun () -> log := "b" :: !log);
  Engine.schedule eng ~at:1.0 (fun () -> log := "a" :: !log);
  Engine.schedule eng ~at:3.0 (fun () -> log := "c" :: !log);
  Engine.run eng;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0 (Engine.now eng)

let test_engine_until () =
  let eng = Engine.create () in
  let fired = ref 0 in
  Engine.schedule eng ~at:1.0 (fun () -> incr fired);
  Engine.schedule eng ~at:5.0 (fun () -> incr fired);
  Engine.run ~until:2.0 eng;
  Alcotest.(check int) "only first" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock clamped" 2.0 (Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "second after resume" 2 !fired

let test_engine_past_rejected () =
  let eng = Engine.create () in
  Engine.schedule eng ~at:1.0 (fun () ->
      Alcotest.check_raises "past" (Invalid_argument "Engine.schedule: time in the past")
        (fun () -> Engine.schedule eng ~at:0.5 (fun () -> ())));
  Engine.run eng

let test_fiber_sleep () =
  let eng = Engine.create () in
  let log = ref [] in
  Fiber.spawn eng (fun () ->
      log := (Fiber.now (), "start") :: !log;
      Fiber.sleep 1.5;
      log := (Fiber.now (), "end") :: !log);
  Engine.run eng;
  match List.rev !log with
  | [ (t0, "start"); (t1, "end") ] ->
    Alcotest.(check (float 1e-9)) "t0" 0.0 t0;
    Alcotest.(check (float 1e-9)) "t1" 1.5 t1
  | _ -> Alcotest.fail "bad log"

let test_fiber_ivar () =
  let eng = Engine.create () in
  let iv = Fiber.Ivar.create () in
  let got = ref 0 in
  Fiber.spawn eng (fun () -> got := Fiber.Ivar.read iv);
  Fiber.spawn eng (fun () ->
      Fiber.sleep 2.0;
      Fiber.Ivar.fill iv 42);
  Engine.run eng;
  Alcotest.(check int) "value" 42 !got;
  Alcotest.(check bool) "filled" true (Fiber.Ivar.is_filled iv);
  Alcotest.check_raises "double fill" (Invalid_argument "Ivar.fill: already filled")
    (fun () -> Fiber.Ivar.fill iv 1)

let test_fiber_fork_all () =
  let eng = Engine.create () in
  let results = ref [] in
  Fiber.spawn eng (fun () ->
      let rs =
        Fiber.fork_all
          (List.init 5 (fun i () ->
               Fiber.sleep (float_of_int (5 - i) *. 0.1);
               i))
      in
      results := rs);
  Engine.run eng;
  Alcotest.(check (list int)) "in order despite timing" [ 0; 1; 2; 3; 4 ] !results

let test_fiber_not_in_fiber () =
  Alcotest.check_raises "sleep outside" Fiber.Not_in_fiber (fun () ->
      ignore (Fiber.engine ()))

let test_resource_fifo () =
  let eng = Engine.create () in
  let r = Resource.create eng ~rate:100.0 in
  let finish = Array.make 2 0. in
  Fiber.spawn eng (fun () ->
      ignore (Resource.use r 100.);
      finish.(0) <- Fiber.now ());
  Fiber.spawn eng (fun () ->
      let queued = Resource.use r 100. in
      finish.(1) <- Fiber.now ();
      Alcotest.(check (float 1e-9)) "queued behind first" 1.0 queued);
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "first done at 1s" 1.0 finish.(0);
  Alcotest.(check (float 1e-9)) "second done at 2s" 2.0 finish.(1);
  Alcotest.(check (float 1e-6)) "utilization" 1.0 (Resource.utilization r)

let test_resource_idle_gap () =
  let eng = Engine.create () in
  let r = Resource.create eng ~rate:10.0 in
  Fiber.spawn eng (fun () ->
      ignore (Resource.use r 10.);
      Fiber.sleep 5.0;
      let queued = Resource.use r 10. in
      Alcotest.(check (float 1e-9)) "no queueing after idle" 0.0 queued;
      Alcotest.(check (float 1e-9)) "finish" 7.0 (Fiber.now ()));
  Engine.run eng

let with_net f =
  let eng = Engine.create () in
  let stats = Stats.create () in
  let net = Net.create eng stats in
  f eng stats net;
  Engine.run eng

let test_net_rpc_latency () =
  with_net (fun eng _stats net ->
      let a = Net.add_node net ~name:"a" and b = Net.add_node net ~name:"b" in
      Fiber.spawn eng (fun () ->
          let t0 = Fiber.now () in
          let r =
            Net.rpc net ~src:a ~dst:b ~tag:"ping" ~req_bytes:0
              ~serve:(fun () -> ((), 0))
          in
          Alcotest.(check bool) "ok" true (r = Ok ());
          let cfg = Net.default_config in
          let rtt = Fiber.now () -. t0 in
          (* At least two propagation delays plus transfer times. *)
          Alcotest.(check bool) "rtt >= 2 lat" true (rtt >= 2. *. cfg.Net.latency);
          Alcotest.(check bool) "rtt < 1ms" true (rtt < 1e-3)))

let test_net_counts_messages () =
  with_net (fun eng stats net ->
      let a = Net.add_node net ~name:"a" and b = Net.add_node net ~name:"b" in
      Fiber.spawn eng (fun () ->
          ignore
            (Net.rpc net ~src:a ~dst:b ~tag:"op" ~req_bytes:1000
               ~serve:(fun () -> ((), 500)));
          Alcotest.(check (float 0.01)) "2 msgs" 2.0 (Stats.counter stats "msgs");
          Alcotest.(check (float 0.01)) "req tagged" 1.0 (Stats.counter stats "msgs.op");
          Alcotest.(check (float 0.01)) "reply tagged" 1.0
            (Stats.counter stats "msgs.op.reply");
          Alcotest.(check bool) "bytes out counted" true (Net.bytes_out a > 1000.);
          Alcotest.(check bool) "bytes in counted" true (Net.bytes_in a > 500.)))

let test_net_crash () =
  with_net (fun eng _stats net ->
      let a = Net.add_node net ~name:"a" and b = Net.add_node net ~name:"b" in
      Net.crash b;
      Fiber.spawn eng (fun () ->
          let r =
            Net.rpc net ~src:a ~dst:b ~tag:"x" ~req_bytes:10
              ~serve:(fun () -> Alcotest.fail "must not serve")
          in
          Alcotest.(check bool) "down" true (r = Error Net.Node_down)))

let test_net_bandwidth_saturation () =
  (* Pushing 10 MB through a 62.5 MB/s NIC takes ~0.16 s. *)
  with_net (fun eng _stats net ->
      let a = Net.add_node net ~name:"a" and b = Net.add_node net ~name:"b" in
      Fiber.spawn eng (fun () ->
          let t0 = Fiber.now () in
          let thunks =
            List.init 10 (fun _ () ->
                ignore
                  (Net.rpc net ~src:a ~dst:b ~tag:"blob" ~req_bytes:1_000_000
                     ~serve:(fun () -> ((), 0))))
          in
          Fiber.fork_all thunks |> ignore;
          let elapsed = Fiber.now () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "elapsed %.3f in [0.15,0.25]" elapsed)
            true
            (elapsed > 0.15 && elapsed < 0.25)))

let test_net_broadcast () =
  with_net (fun eng stats net ->
      let src = Net.add_node net ~name:"src" in
      let dsts = List.init 4 (fun i -> Net.add_node net ~name:(Printf.sprintf "d%d" i)) in
      Net.crash (List.nth dsts 2);
      Fiber.spawn eng (fun () ->
          let results =
            Net.broadcast net ~src ~dsts ~tag:"bc" ~req_bytes:1000
              ~serve:(fun _ -> ((), 4))
          in
          Alcotest.(check int) "4 results" 4 (List.length results);
          List.iteri
            (fun i (_, r) ->
              if i = 2 then
                Alcotest.(check bool) "crashed dst" true (r = Error Net.Node_down)
              else Alcotest.(check bool) "ok" true (r = Ok ()))
            results;
          (* Broadcast pays the send path once: 1 request msg + 3 replies. *)
          Alcotest.(check (float 0.01)) "1 bcast msg" 1.0 (Stats.counter stats "msgs.bc");
          Alcotest.(check (float 0.01)) "3 replies" 3.0
            (Stats.counter stats "msgs.bc.reply")))

let test_fiber_timeout () =
  let eng = Engine.create () in
  let fast = ref None and slow = ref None in
  Fiber.spawn eng (fun () ->
      fast := Fiber.timeout 1.0 (fun () -> Fiber.sleep 0.1; 42));
  Fiber.spawn eng (fun () ->
      slow := Fiber.timeout 0.1 (fun () -> Fiber.sleep 1.0; 43));
  Engine.run eng;
  Alcotest.(check (option int)) "fast wins" (Some 42) !fast;
  Alcotest.(check (option int)) "slow times out" None !slow

let test_fiber_yield () =
  let eng = Engine.create () in
  let log = ref [] in
  Fiber.spawn eng (fun () ->
      log := 1 :: !log;
      Fiber.yield ();
      log := 3 :: !log);
  Fiber.spawn eng (fun () -> log := 2 :: !log);
  Engine.run eng;
  Alcotest.(check (list int)) "yield interleaves" [ 1; 2; 3 ] (List.rev !log)

let test_engine_step_and_processed () =
  let eng = Engine.create () in
  Engine.schedule eng ~at:1.0 (fun () -> ());
  Engine.schedule eng ~at:2.0 (fun () -> ());
  Alcotest.(check int) "pending" 2 (Engine.pending eng);
  Alcotest.(check bool) "step one" true (Engine.step eng);
  Alcotest.(check int) "processed" 1 (Engine.processed eng);
  Alcotest.(check bool) "step two" true (Engine.step eng);
  Alcotest.(check bool) "empty" false (Engine.step eng)

let test_resource_total_served () =
  let eng = Engine.create () in
  let r = Resource.create eng ~rate:10. in
  Fiber.spawn eng (fun () ->
      ignore (Resource.use r 5.);
      ignore (Resource.use r 7.));
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "served" 12. (Resource.total_served r);
  Alcotest.check_raises "negative" (Invalid_argument "Resource.use: negative amount")
    (fun () ->
      Fiber.spawn eng (fun () -> ignore (Resource.use r (-1.)));
      Engine.run eng)

let test_stats_snapshot_and_reset () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.add s "b" 2.5;
  let snap = Stats.snapshot s in
  Stats.incr s "a";
  Alcotest.(check (float 1e-9)) "snapshot frozen" 1. (Stats.counter snap "a");
  Alcotest.(check (float 1e-9)) "live moved" 2. (Stats.counter s "a");
  Alcotest.(check (list (pair string (float 1e-9)))) "counters sorted"
    [ ("a", 2.); ("b", 2.5) ] (Stats.counters s);
  Stats.reset s;
  Alcotest.(check (float 1e-9)) "reset" 0. (Stats.counter s "a");
  Alcotest.(check (list (pair string (float 1e-9)))) "empty" [] (Stats.counters s)

let test_deterministic_runs () =
  (* Two runs with the same seed produce identical event counts/time. *)
  let run () =
    let eng = Engine.create ~seed:99 () in
    let stats = Stats.create () in
    let net = Net.create eng stats in
    let a = Net.add_node net ~name:"a" and b = Net.add_node net ~name:"b" in
    Fiber.spawn eng (fun () ->
        for _ = 1 to 20 do
          ignore
            (Net.rpc net ~src:a ~dst:b
               ~tag:"op"
               ~req_bytes:(1 + Random.State.int (Engine.random eng) 1000)
               ~serve:(fun () -> ((), 16)))
        done);
    Engine.run eng;
    (Engine.now eng, Engine.processed eng, Stats.counter stats "bytes")
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "identical" true (r1 = r2)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "sim",
    [
      t "heap ordering + FIFO ties" test_heap_ordering;
      t "heap 1000 random" test_heap_many;
      t "engine event ordering" test_engine_ordering;
      t "engine run ~until" test_engine_until;
      t "engine rejects past" test_engine_past_rejected;
      t "fiber sleep advances clock" test_fiber_sleep;
      t "ivar fill/read" test_fiber_ivar;
      t "fork_all order" test_fiber_fork_all;
      t "blocking outside fiber" test_fiber_not_in_fiber;
      t "resource FIFO queueing" test_resource_fifo;
      t "resource idle gap" test_resource_idle_gap;
      t "rpc latency" test_net_rpc_latency;
      t "rpc message accounting" test_net_counts_messages;
      t "rpc to crashed node" test_net_crash;
      t "NIC bandwidth saturation" test_net_bandwidth_saturation;
      t "broadcast pays send once" test_net_broadcast;
      t "fiber timeout" test_fiber_timeout;
      t "fiber yield" test_fiber_yield;
      t "engine step/processed" test_engine_step_and_processed;
      t "resource total_served + validation" test_resource_total_served;
      t "stats snapshot/reset" test_stats_snapshot_and_reset;
      t "deterministic runs" test_deterministic_runs;
    ] )
