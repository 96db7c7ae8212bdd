(* Parallel backend (lib/par): real OCaml 5 domains under the same
   protocol stack the simulator drives.

   Unlike every other suite these tests are not deterministic replays —
   they assert {e invariants} that must hold under any interleaving:
   per-sender mailbox FIFO (parking and spinning), close reaching a
   spinning popper, pool barrier semantics, commutativity of
   concurrent adds into one stripe, crash-of-worker fail-stop (killed,
   or a handler that raised), long ping-pongs on both the spin and the
   park handoff, and no-leaked-domains shutdown (proved by cycling
   more environments than the runtime's domain limit).  Plus
   regression tests for the latent shared-mutation hazards the
   domain-safety audit fixed even on single-domain paths: Buf_pool
   double-put reuse, Metrics lost updates. *)

(* CI chaos matrix: ECS_SEED_OFFSET shifts every hardcoded seed so each
   matrix leg explores a different schedule. *)
let seed_offset =
  match Sys.getenv_opt "ECS_SEED_OFFSET" with
  | Some s -> ( try int_of_string s with _ -> 0)
  | None -> 0

let cfg_small () = Config.make ~t_p:1 ~block_size:64 ~k:3 ~n:5 ()

(* ------------------------------------------------------------------ *)
(* Mailbox. *)

let mailbox_fifo_per_sender ~spin =
  let mb = Par_mailbox.create ~spin ~capacity:4 in
  let producers = 3 and per = 200 in
  let doms =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              assert (Par_mailbox.push mb (p, i))
            done))
  in
  (* consume on this domain while producers block on the small bound *)
  let last = Array.make producers (-1) in
  for _ = 1 to producers * per do
    match Par_mailbox.pop mb with
    | None -> Alcotest.fail "queue closed early"
    | Some (p, i) ->
      Alcotest.(check bool)
        (Printf.sprintf "sender %d in order (%d after %d)" p i last.(p))
        true
        (i = last.(p) + 1);
      last.(p) <- i
  done;
  List.iter Domain.join doms;
  Par_mailbox.close mb;
  Alcotest.(check bool) "drained close pops None" true (Par_mailbox.pop mb = None);
  Alcotest.(check bool) "push after close fails" false (Par_mailbox.push mb (0, 0))

let test_mailbox_fifo_per_sender () = mailbox_fifo_per_sender ~spin:false

(* The spin only picks the moment the popper takes the lock; order is
   still decided under it. *)
let test_mailbox_fifo_spinning () = mailbox_fifo_per_sender ~spin:true

let test_mailbox_close_wakes_blocked () =
  let mb = Par_mailbox.create ~spin:false ~capacity:1 in
  assert (Par_mailbox.push mb 0);
  (* blocked producer and a popper on other domains; close must wake both *)
  let producer = Domain.spawn (fun () -> Par_mailbox.push mb 1) in
  let popper = Domain.spawn (fun () -> Par_mailbox.pop mb) in
  Unix.sleepf 0.02;
  Par_mailbox.close mb;
  let pushed = Domain.join producer in
  let popped = Domain.join popper in
  (* the popper may have drained element 0 (and the producer then
     slipped element 1 in) or found it closed; all that is promised is
     that nobody hangs and a failed push enqueued nothing *)
  Alcotest.(check bool)
    "no hang; observed states legal" true
    (match (pushed, popped) with
    | _, Some 0 | _, None | true, Some 1 -> true
    | _ -> false)

(* A popper still inside its spin budget on an empty mailbox must see
   [close] and return [None] at once, not park until some later wake. *)
let test_mailbox_close_while_spinning () =
  let mb = Par_mailbox.create ~spin:true ~capacity:4 in
  let started = Atomic.make false in
  let popper =
    Domain.spawn (fun () ->
        Atomic.set started true;
        Par_mailbox.pop mb)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let t0 = Unix.gettimeofday () in
  Par_mailbox.close mb;
  let popped : int option = Domain.join popper in
  let waited = Unix.gettimeofday () -. t0 in
  Alcotest.(check (option int)) "spinning popper sees close" None popped;
  Alcotest.(check bool)
    (Printf.sprintf "returned promptly (%.0f us)" (1e6 *. waited))
    true (waited < 0.5)

(* ------------------------------------------------------------------ *)
(* pfor: thunks are coroutines on the calling domain. *)

let read_ok (module T : Transport.S) node =
  match T.call_node ~node Proto.Read with Ok _ -> true | Error _ -> false

let test_pfor_runs_all_and_nests () =
  let cfg = cfg_small () in
  let env = Par_env.create ~workers:2 cfg in
  let tr = Par_env.transport env ~id:1 in
  let (module T : Transport.S) = tr in
  let n = 40 in
  let hit = Array.make n false in
  T.pfor
    (List.init n (fun i () ->
         let node = (i + seed_offset) mod cfg.Config.n in
         if i mod 10 = 0 then
           (* a nested pfor joins the same loop *)
           T.pfor
             [
               (fun () -> assert (read_ok tr node));
               (fun () -> assert (read_ok tr ((node + 1) mod cfg.Config.n)));
             ];
         hit.(i) <- read_ok tr node));
  Alcotest.(check bool) "every thunk ran" true (Array.for_all Fun.id hit);
  Par_env.shutdown env

(* Thunks that never wait run in submission order; and helper domains
   are gone, so asking for one is an error. *)
let test_pfor_in_order () =
  let cfg = cfg_small () in
  Alcotest.check_raises "pfor_workers > 0 rejected"
    (Invalid_argument "Par_env.create: pfor_workers <> 0") (fun () ->
      ignore (Par_env.create ~pfor_workers:1 cfg));
  let env = Par_env.create ~workers:1 ~pfor_workers:0 cfg in
  let (module T : Transport.S) = Par_env.transport env ~id:1 in
  let order = ref [] in
  T.pfor (List.init 5 (fun i () -> order := i :: !order));
  Alcotest.(check (list int)) "submission order" [ 4; 3; 2; 1; 0 ] !order;
  Par_env.shutdown env

exception Boom

(* Thunk 3 raises before the others' calls are answered: the exception
   must wait until every sibling has finished. *)
let test_pfor_exception_after_barrier () =
  let cfg = cfg_small () in
  let env = Par_env.create ~workers:2 ~service_time:1e-3 cfg in
  let tr = Par_env.transport env ~id:1 in
  let (module T : Transport.S) = tr in
  let done_ = Array.make 8 false in
  (try
     T.pfor
       (List.init 8 (fun i () ->
            if i = 3 then raise Boom;
            done_.(i) <- read_ok tr (i mod cfg.Config.n)));
     Alcotest.fail "expected Boom"
   with Boom -> ());
  List.iteri
    (fun i d -> if i <> 3 then Alcotest.(check bool) "thunk finished" true d)
    (Array.to_list done_);
  Par_env.shutdown env

(* Latency-bound fan-outs overlap: one worker per node and a service
   time S far above scheduler noise.  A parallel-strategy write is a
   swap and then p = 2 adds at once, so about 2·S; run one after
   another it takes at least 3·S. *)
let service = 20e-3

let test_pfor_write_overlaps () =
  let cfg = cfg_small () in
  let env =
    Par_env.create ~rotate:false ~workers:cfg.Config.n ~service_time:service
      cfg
  in
  let c = Par_env.make_client env ~id:1 in
  let b = Bytes.make cfg.Config.block_size 'w' in
  Client.write c ~slot:0 ~i:0 b;
  let t0 = Unix.gettimeofday () in
  Bytes.fill b 0 (Bytes.length b) (Char.chr (seed_offset land 0xff));
  Client.write c ~slot:0 ~i:0 b;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "write %.1f ms < 2.5 S (S = %.0f ms)" (1e3 *. dt)
       (1e3 *. service))
    true
    (dt < 2.5 *. service);
  Alcotest.(check bool) "value read back" true
    (Bytes.equal (Client.read c ~slot:0 ~i:0) b);
  Par_env.shutdown env

(* A read off a Suspect data node races the primary against a hedge
   armed after exactly 2·S: overlapped, the read ends when the hedge
   bows out, about 2·S; run one after another, S + 2·S. *)
let test_pfor_hedge_overlaps () =
  let health =
    {
      Config.default_health with
      Config.timeout_floor = 2. *. service;
      timeout_ceil = 2. *. service;
      hedge = true;
    }
  in
  let cfg = Config.make ~t_p:1 ~block_size:64 ~k:3 ~n:5 ~health () in
  let env =
    Par_env.create ~rotate:false ~workers:cfg.Config.n ~service_time:service
      cfg
  in
  let hedges = Atomic.make 0 in
  let sink _ = function
    | Trace.Hedge_launched _ -> Atomic.incr hedges
    | _ -> ()
  in
  let c = Par_env.make_client ~sink env ~id:1 in
  let b = Bytes.make cfg.Config.block_size 'h' in
  Client.write c ~slot:0 ~i:0 b;
  (* rotate:false: data block 0 of stripe 0 is on node 0 *)
  let h = Client.health c in
  let now = Par_env.now env in
  ignore (Health.observe_timeout h ~now ~node:0);
  ignore (Health.observe_timeout h ~now ~node:0);
  Alcotest.(check bool) "node 0 suspect" true
    (Health.state h ~node:0 = Health.Suspect);
  let t0 = Unix.gettimeofday () in
  let v = Client.read c ~slot:0 ~i:0 in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "hedge launched" 1 (Atomic.get hedges);
  Alcotest.(check bool) "value" true (Bytes.equal v b);
  Alcotest.(check bool)
    (Printf.sprintf "hedged read %.1f ms < 2.5 S (S = %.0f ms)" (1e3 *. dt)
       (1e3 *. service))
    true
    (dt < 2.5 *. service);
  Par_env.shutdown env

(* [sleep] in a thunk is a timer on the loop: its siblings keep making
   calls while it waits. *)
let test_pfor_sleep_does_not_stall () =
  let cfg = cfg_small () in
  let env = Par_env.create ~workers:1 cfg in
  let tr = Par_env.transport env ~id:1 in
  let (module T : Transport.S) = tr in
  let nap = 0.2 in
  let t0 = Unix.gettimeofday () in
  let calls_done = ref infinity and woke = ref 0. in
  T.pfor
    [
      (fun () ->
        T.sleep nap;
        woke := Unix.gettimeofday () -. t0);
      (fun () ->
        for i = 1 to 20 do
          assert (read_ok tr (i mod cfg.Config.n))
        done;
        calls_done := Unix.gettimeofday () -. t0);
    ];
  Alcotest.(check bool)
    (Printf.sprintf "sibling done at %.1f ms, before the %.0f ms nap ends"
       (1e3 *. !calls_done) (1e3 *. nap))
    true
    (!calls_done < nap /. 2.);
  Alcotest.(check bool) "sleeper slept its nap" true (!woke >= nap);
  Par_env.shutdown env

(* ------------------------------------------------------------------ *)
(* Environment: concurrent adds commute (the linearity the protocol
   banks on), repeated across fresh interleavings. *)

let test_concurrent_adds_commute () =
  let cfg = cfg_small () in
  let rounds = 100 and writers = 3 and writes_per = 3 in
  let env = Par_env.create ~workers:2 cfg in
  for round = 0 to rounds - 1 do
    let slot = round in
    let fill i r =
      Char.chr ((seed_offset + (i * 67) + (round * 13) + r) land 0xff)
    in
    let doms =
      List.init writers (fun i ->
          Domain.spawn (fun () ->
              let c = Par_env.make_client env ~id:(10 + i) in
              let b = Bytes.create cfg.Config.block_size in
              for r = 1 to writes_per do
                Bytes.fill b 0 (Bytes.length b) (fill i r);
                ignore (Client.write c ~slot ~i b)
              done))
    in
    List.iter Domain.join doms;
    let c = Par_env.make_client env ~id:1 in
    for i = 0 to writers - 1 do
      let expect = Bytes.make cfg.Config.block_size (fill i writes_per) in
      Alcotest.(check bool)
        (Printf.sprintf "round %d block %d direct read" round i)
        true
        (Bytes.equal (Client.read c ~slot ~i) expect);
      (* and via the redundant columns all three writers updated
         concurrently: mask the data node, decode from survivors *)
      Par_env.crash_node env (Layout.node_of (Layout.create ~rotate:true
        ~k:cfg.Config.k ~n:cfg.Config.n ()) ~stripe:slot ~pos:i);
      (match Client.read_degraded c ~slot ~i with
      | Some v ->
        Alcotest.(check bool)
          (Printf.sprintf "round %d block %d degraded decode" round i)
          true (Bytes.equal v expect)
      | None ->
        Alcotest.failf "round %d block %d: degraded decode unavailable" round i);
      Par_env.revive_node env
        (Layout.node_of (Layout.create ~rotate:true ~k:cfg.Config.k
           ~n:cfg.Config.n ()) ~stripe:slot ~pos:i)
    done
  done;
  Par_env.shutdown env

(* ------------------------------------------------------------------ *)
(* Fail-stop: killed worker domain = Node_down for exactly its nodes. *)

(* Every node owned by worker [dead] answers [`Node_down]; every other
   node still answers. *)
let check_only_worker_down env cfg ~dead =
  let (module T : Transport.S) = Par_env.transport env ~id:2 in
  for node = 0 to cfg.Config.n - 1 do
    let r = T.call_node ~node Proto.Read in
    if Par_env.owner env node = dead then
      Alcotest.(check bool)
        (Printf.sprintf "node %d on the dead worker is down" node)
        true
        (r = Error `Node_down)
    else
      Alcotest.(check bool)
        (Printf.sprintf "node %d on a live worker still answers" node)
        true
        (match r with Ok _ -> true | Error _ -> false)
  done

let test_kill_worker_node_down () =
  let cfg = cfg_small () in
  let env = Par_env.create ~rotate:false ~workers:2 cfg in
  let c = Par_env.make_client env ~id:1 in
  let b = Bytes.make cfg.Config.block_size 'x' in
  for i = 0 to cfg.Config.k - 1 do
    ignore (Client.write c ~slot:0 ~i b)
  done;
  Par_env.kill_worker env 1;
  check_only_worker_down env cfg ~dead:1;
  (* with rotate:false, pos p lives on node p: data block 0 is on the
     live worker 0 (0 mod 2), its stripe survivors include k=3 members
     on... enough for the degraded decode iff k live members remain.
     Nodes 1 and 3 died with worker 1, leaving 0, 2, 4: exactly k. *)
  (match Client.read_degraded c ~slot:0 ~i:1 with
  | Some v ->
    Alcotest.(check bool) "degraded decode around dead worker" true
      (Bytes.equal v b)
  | None -> Alcotest.fail "degraded decode unavailable after worker kill");
  Par_env.shutdown env

(* A handler that raises must fail-stop its worker, not kill the domain
   silently and leave the caller waiting forever on its reply cell. *)
let test_raising_handler_fail_stops () =
  let cfg = cfg_small () in
  let env = Par_env.create ~rotate:false ~workers:2 cfg in
  let (module T : Transport.S) = Par_env.transport env ~id:1 in
  (* a 3-byte delta into a 64-byte block: the node's kernel raises *)
  let bad =
    Proto.Add
      {
        dv = Bytes.create 3;
        ntid = { Proto.seq = 1; blk = 0; client = 1 };
        otid = None;
        epoch = 0;
      }
  in
  (* rotate:false puts pos 3 on node 3, owned by worker 1 *)
  Alcotest.(check bool) "raising call answers Node_down" true
    (T.call ~slot:0 ~pos:3 bad = Error `Node_down);
  check_only_worker_down env cfg ~dead:1;
  Par_env.shutdown env

(* ------------------------------------------------------------------ *)
(* Handoff: the spin predicate, and a long ping-pong on either path. *)

let test_spin_eligible () =
  let budget = Par_mailbox.spin_budget in
  List.iter
    (fun (workers, cores, block_size, service_time, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d workers on %d cores, %d B blocks, %g s" workers
           cores block_size service_time)
        expect
        (Par_env.spin_eligible ~workers ~cores ~block_size ~service_time))
    [
      (1, 1, 4096, 0., false);
      (1, 2, 4096, 0., true);
      (2, 2, 4096, 0., false);
      (3, 4, 4096, 0., true);
      (4, 4, 4096, 0., false);
      (3, 2, 4096, 0., false);
      (1, 2, Par_env.spin_max_block, 0., true);
      (1, 2, Par_env.spin_max_block + 1, 0., false);
      (1, 2, 65536, 0., false);
      (1, 2, 4096, 0.5 *. budget, true);
      (1, 2, 4096, budget, false);
      (3, 8, 4096, 300e-6, false);
    ]

(* One client domain, one worker: alternate swaps and reads over a few
   slots, so every reply's block is fixed by the requests before it and
   a reply delivered to the wrong call, or twice, shows up as a
   mismatch. *)
let ping_pong ~service_time () =
  let cfg = cfg_small () in
  let calls = 20_000 and slots = 32 in
  let env =
    Par_env.create ~rotate:false ~workers:1 ~service_time cfg
  in
  Alcotest.(check bool)
    "environment spins iff the predicate holds on this host"
    (Par_env.spin_eligible ~workers:1
       ~cores:(Domain.recommended_domain_count ())
       ~block_size:cfg.Config.block_size ~service_time)
    (Par_env.spins env);
  let (module T : Transport.S) = Par_env.transport env ~id:1 in
  let last = Array.make slots (Bytes.make cfg.Config.block_size '\000') in
  let mismatch i = Alcotest.failf "call %d: reply does not match request" i in
  for i = 0 to calls - 1 do
    let slot = i / 2 mod slots in
    if i mod 2 = 0 then begin
      let v = Bytes.make cfg.Config.block_size (Char.chr (slot + 1)) in
      Bytes.set_int64_le v 0 (Int64.of_int (seed_offset + i));
      let ntid = { Proto.seq = i; blk = 0; client = 1 } in
      (match T.call ~slot ~pos:0 (Proto.Swap { v; ntid }) with
      | Ok (Proto.R_swap { block = Some old; _ })
        when Bytes.equal old last.(slot) -> ()
      | _ -> mismatch i);
      last.(slot) <- v
    end
    else
      match T.call ~slot ~pos:0 Proto.Read with
      | Ok (Proto.R_read { block = Some b; _ })
        when Bytes.equal b last.(slot) -> ()
      | _ -> mismatch i
  done;
  Par_env.shutdown env

let test_ping_pong_spin = ping_pong ~service_time:0.

(* A service time beyond the spin budget turns spinning off, so every
   call parks on both sides. *)
let test_ping_pong_park =
  ping_pong ~service_time:(1.2 *. Par_mailbox.spin_budget)

(* ------------------------------------------------------------------ *)
(* Shutdown leaks no domains: cycle more environments than the
   runtime's limit (~128 live domains); any leak blows Domain.spawn. *)

let test_no_leaked_domains () =
  let cfg = cfg_small () in
  for i = 0 to 129 do
    let env = Par_env.create ~workers:2 cfg in
    if i mod 17 = 0 then begin
      let c = Par_env.make_client env ~id:1 in
      ignore (Client.write c ~slot:0 ~i:0 (Bytes.make cfg.Config.block_size 'z'))
    end;
    Par_env.shutdown env;
    Par_env.shutdown env (* idempotent *)
  done;
  Alcotest.(check pass) "cycled 130 environments" () ()

(* ------------------------------------------------------------------ *)
(* Regression: the latent hazards the audit fixed, single-domain view. *)

let test_buf_pool_double_put_dropped () =
  Buf_pool.reset ();
  let b = Buf_pool.get 256 in
  Buf_pool.put b;
  Buf_pool.put b;
  (* second put of the same buffer must be dropped, not pooled twice *)
  let s = Buf_pool.stats () in
  Alcotest.(check int) "double put counted as drop" 1 s.Buf_pool.drops;
  let x = Buf_pool.get 256 in
  let y = Buf_pool.get 256 in
  Alcotest.(check bool) "two gets never alias one buffer" false (x == y);
  Buf_pool.reset ()

let test_buf_pool_domain_local () =
  Buf_pool.reset ();
  let b = Buf_pool.get 512 in
  Buf_pool.put b;
  let other_hits =
    Domain.join
      (Domain.spawn (fun () ->
           (* a fresh domain has its own empty pool: this get must miss *)
           let c = Buf_pool.get 512 in
           Alcotest.(check bool) "no cross-domain handout" false (b == c);
           (Buf_pool.stats ()).Buf_pool.hits))
  in
  Alcotest.(check int) "other domain saw no pooled buffer" 0 other_hits;
  let again = Buf_pool.get 512 in
  Alcotest.(check bool) "own domain still recycles LIFO" true (b == again);
  Buf_pool.reset ()

let test_metrics_concurrent_bumps () =
  let m = Metrics.create () in
  let sink = Metrics.sink m in
  let ctx =
    { Trace.op_id = 0; client = 1; kind = Trace.Op_write; slot = 0; parent = None }
  in
  let per = 5000 and doms = 4 in
  let spawned =
    List.init doms (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              sink ctx (Trace.Rpc_retry { req = Proto.Read; attempt = 1; backoff = 0. })
            done))
  in
  List.iter Domain.join spawned;
  (* a non-atomic read-modify-write loses updates here *)
  Alcotest.(check int) "no lost counter updates" (per * doms)
    (Metrics.counter m "rpc.retries")

let suite =
  ( "par",
    [
      Alcotest.test_case "mailbox FIFO per sender" `Quick
        test_mailbox_fifo_per_sender;
      Alcotest.test_case "mailbox FIFO per sender (spinning)" `Quick
        test_mailbox_fifo_spinning;
      Alcotest.test_case "mailbox close wakes blocked domains" `Quick
        test_mailbox_close_wakes_blocked;
      Alcotest.test_case "mailbox close reaches a spinning popper" `Quick
        test_mailbox_close_while_spinning;
      Alcotest.test_case "pfor runs all thunks, nesting safe" `Quick
        test_pfor_runs_all_and_nests;
      Alcotest.test_case "pfor without helper domains keeps order" `Quick
        test_pfor_in_order;
      Alcotest.test_case "pfor re-raises after the barrier" `Quick
        test_pfor_exception_after_barrier;
      Alcotest.test_case "pfor overlaps a parallel write's adds" `Quick
        test_pfor_write_overlaps;
      Alcotest.test_case "pfor overlaps a hedged read's legs" `Quick
        test_pfor_hedge_overlaps;
      Alcotest.test_case "pfor sleep does not stall siblings" `Quick
        test_pfor_sleep_does_not_stall;
      Alcotest.test_case "concurrent adds commute (100 rounds)" `Slow
        test_concurrent_adds_commute;
      Alcotest.test_case "killed worker surfaces as Node_down" `Quick
        test_kill_worker_node_down;
      Alcotest.test_case "raising handler fail-stops its worker" `Quick
        test_raising_handler_fail_stops;
      Alcotest.test_case "spin predicate fits domains to cores" `Quick
        test_spin_eligible;
      Alcotest.test_case "ping-pong 20k calls, spin handoff" `Slow
        test_ping_pong_spin;
      Alcotest.test_case "ping-pong 20k calls, caller parks" `Slow
        test_ping_pong_park;
      Alcotest.test_case "shutdown leaks no domains (130 cycles)" `Slow
        test_no_leaked_domains;
      Alcotest.test_case "buf pool drops double put" `Quick
        test_buf_pool_double_put_dropped;
      Alcotest.test_case "buf pool is domain-local" `Quick
        test_buf_pool_domain_local;
      Alcotest.test_case "metrics survive concurrent bumps" `Quick
        test_metrics_concurrent_bumps;
    ] )
