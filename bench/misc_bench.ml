(* Sections 6.3-6.5: latency breakdown, protocol complexity (LoC), and
   space overhead at storage nodes; plus the ablation benches from
   DESIGN.md. *)

open Ecs_volume

let block_size = 1024

(* Storage member [i] of a single-group cluster. *)
let member cluster i =
  Directory.lookup (Shard_cluster.group_directory cluster 0) i

let latency () =
  Bench_util.section
    "Sec 6.3: latency - 4-block write on a 3-of-5 code (paper: < 3 ms, \
     computation < 5%)";
  let cfg =
    Config.make ~strategy:Config.Parallel ~t_p:1 ~block_size ~k:3 ~n:5 ()
  in
  let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
  let volume = Volume.create cluster ~id:0 in
  let lat = ref 0. in
  Shard_cluster.spawn cluster (fun () ->
      (* Warm the stripe. *)
      for l = 0 to 3 do
        Volume.write volume l (Bytes.make block_size 'a')
      done;
      let t0 = Fiber.now () in
      Volume.write_batch volume
        (List.init 4 (fun l -> (l, Bytes.make block_size 'b')));
      lat := Fiber.now () -. t0);
  Shard_cluster.run cluster;
  (* Computation share: deltas for p redundant blocks per write. *)
  let costs = cfg.Config.costs in
  let compute =
    4.
    *. float_of_int (Config.p cfg)
    *. (costs.Config.delta_per_byte +. costs.Config.add_per_byte)
    *. float_of_int block_size
  in
  Printf.printf "4-block pipelined write latency: %.3f ms (paper: < 3 ms)\n"
    (1000. *. !lat);
  Printf.printf
    "erasure-code computation in that write: %.1f us = %.1f%% (paper: < 5%%)\n"
    (1e6 *. compute)
    (100. *. compute /. !lat);
  (* Distribution of single-block operation latencies under load. *)
  let cluster2 = Shard_cluster.create ~remap_policy:`Auto cfg in
  let writes = ref [] and reads = ref [] in
  (* Four concurrent clients with four fibers each, so queueing at NICs
     and storage nodes spreads the distribution. *)
  for id = 0 to 3 do
    let volume2 = Volume.create cluster2 ~id in
    for f = 0 to 3 do
      Shard_cluster.spawn cluster2 (fun () ->
          let rng = Random.State.make [| (id * 17) + f |] in
          for _ = 0 to 49 do
            let l = Random.State.int rng 200 in
            let t0 = Fiber.now () in
            Volume.write volume2 l (Bytes.make block_size 'l');
            writes := (Fiber.now () -. t0) :: !writes;
            let t1 = Fiber.now () in
            ignore (Volume.read volume2 (Random.State.int rng 200));
            reads := (Fiber.now () -. t1) :: !reads
          done)
    done
  done;
  Shard_cluster.run cluster2;
  let pct samples q =
    let arr = Array.of_list samples in
    Array.sort compare arr;
    arr.(int_of_float (q *. float_of_int (Array.length arr - 1)))
  in
  let row name samples =
    Printf.printf
      "%-6s 1-block latency: p50 %.0f us, p95 %.0f us, max %.0f us\n" name
      (1e6 *. pct samples 0.5)
      (1e6 *. pct samples 0.95)
      (1e6 *. pct samples 1.0)
  in
  row "write" !writes;
  row "read" !reads

let overhead () =
  Bench_util.section
    "Sec 6.5: space overhead at storage nodes (paper: ~10 bytes/block = 1% \
     of 1KB)";
  let cfg =
    Config.make ~strategy:Config.Parallel ~t_p:1 ~block_size ~k:3 ~n:5 ()
  in
  let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
  let volume = Volume.create cluster ~id:0 in
  Shard_cluster.spawn cluster (fun () ->
      for l = 0 to 299 do
        Volume.write volume l (Bytes.make block_size 'o')
      done;
      (* Two GC rounds: recent -> old -> dropped. *)
      Volume.collect_garbage volume ~group:0;
      Volume.collect_garbage volume ~group:0);
  Shard_cluster.run cluster;
  let per_slot node =
    let e = member cluster node in
    Storage_node.overhead_bytes_per_slot e.Directory.store
  in
  let avg =
    List.fold_left (fun acc i -> acc +. per_slot i) 0. [ 0; 1; 2; 3; 4 ] /. 5.
  in
  Printf.printf
    "after 300 writes + GC: %.1f metadata bytes per block = %.2f%% of a %dB \
     block\n"
    avg
    (100. *. avg /. float_of_int block_size)
    block_size

let loc () =
  Bench_util.section "Sec 6.4: protocol complexity (paper: ~5,500 lines of C)";
  let count_dir dir =
    if not (Sys.file_exists dir && Sys.is_directory dir) then 0
    else
      let rec walk d acc =
        Array.fold_left
          (fun acc entry ->
            let path = Filename.concat d entry in
            if Sys.is_directory path then walk path acc
            else if
              Filename.check_suffix entry ".ml"
              || Filename.check_suffix entry ".mli"
            then begin
              let ic = open_in path in
              let lines = ref 0 in
              (try
                 while true do
                   ignore (input_line ic);
                   incr lines
                 done
               with End_of_file -> close_in ic);
              acc + !lines
            end
            else acc)
          acc (Sys.readdir d)
      in
      walk dir 0
  in
  let libs =
    if Sys.file_exists "lib" && Sys.is_directory "lib" then
      Sys.readdir "lib" |> Array.to_list |> List.sort compare
      |> List.map (Filename.concat "lib")
      |> List.filter Sys.is_directory
    else []
  in
  let dirs = libs @ [ "test"; "bench"; "benchmark"; "examples"; "bin" ] in
  if count_dir "lib/core" = 0 then
    print_endline
      "(source tree not visible from this working directory; run from the \
       repository root)"
  else begin
    let rows =
      List.filter_map
        (fun d ->
          let c = count_dir d in
          if c = 0 then None else Some [ d; string_of_int c ])
        dirs
    in
    let total =
      List.fold_left (fun acc row -> acc + int_of_string (List.nth row 1)) 0 rows
    in
    Table.print ~title:"OCaml lines by component" ~header:[ "component"; "lines" ]
      (rows @ [ [ "total"; string_of_int total ] ])
  end

let validate () =
  Bench_util.section
    "Sec 6.6 analogue: simulator vs analytic model (paper validated its \
     simulator against the real system to <= 20% error)";
  (* Closed-form client-NIC-bound throughput for a saturated writer:
     every written block moves swap(req B, resp B) plus p add requests
     through the client NIC, headers included. *)
  let net_cfg = Net.default_config in
  let hdr = float_of_int net_cfg.Net.header_bytes in
  let b = float_of_int block_size in
  let rows =
    List.map
      (fun (k, n) ->
        let p = float_of_int (n - k) in
        let bytes_per_write =
          (b +. hdr) (* swap request *)
          +. (b +. hdr) (* swap response with old block *)
          +. (p *. (b +. hdr)) (* add requests *)
          +. (p *. hdr) (* add acks *)
        in
        let clients = 2. in
        let analytic =
          clients *. net_cfg.Net.node_bandwidth /. bytes_per_write *. b /. 1e6
        in
        let cfg =
          Config.make ~strategy:Config.Parallel ~t_p:1 ~block_size ~k ~n ()
        in
        let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
        let r =
          Vrunner.run_profile ~warmup:0.02 ~blocks:4096 ~sc:cluster
            ~tenants:
              (Vrunner.clients 2
                 (Profile.closed ~outstanding:32 ~write_frac:1. ()))
            ~duration:0.1 ()
        in
        let err =
          100. *. Float.abs (r.Vrunner.run.write_mbs -. analytic) /. analytic
        in
        [
          Printf.sprintf "%d-of-%d" k n;
          Printf.sprintf "%.1f" analytic;
          Printf.sprintf "%.1f" r.Vrunner.run.write_mbs;
          Printf.sprintf "%.1f%%" err;
        ])
      [ (2, 3); (3, 5); (4, 7); (4, 8); (8, 16) ]
  in
  Table.print
    ~title:"saturated 2-client write throughput: NIC-bound model vs simulation"
    ~header:[ "code"; "analytic MB/s"; "simulated MB/s"; "error" ]
    rows

let rw_ratio () =
  Bench_util.section
    "Sec 6.2: read throughput vs write throughput (paper: reads typically \
     4-5x writes)";
  let tput write_frac =
    let cfg =
      Config.make ~strategy:Config.Parallel ~t_p:1 ~block_size ~k:3 ~n:5 ()
    in
    let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
    let r =
      Vrunner.run_profile ~warmup:0.02 ~blocks:4096 ~sc:cluster
        ~tenants:
          (Vrunner.clients 2 (Profile.closed ~outstanding:32 ~write_frac ()))
        ~duration:0.1 ()
    in
    (r.Vrunner.run.read_mbs, r.Vrunner.run.write_mbs)
  in
  let _, w = tput 1. in
  let r, _ = tput 0. in
  Printf.printf
    "2 clients, 32 outstanding, 3-of-5: reads %.1f MB/s vs writes %.1f MB/s \
     = %.1fx (paper: 4-5x; a p=2 write moves (p+2)B=4B of client bytes per \
     block, a read moves ~1B)\n"
    r w (r /. w)

let recovery_throughput () =
  Bench_util.section
    "Sec 6.2 (undepicted): aggregate recovery throughput - 3 clients \
     rebuilding a crashed storage node's blocks (paper: ~17 MB/s, ~22 ms \
     per 16-block batch)";
  let cfg =
    Config.make ~strategy:Config.Parallel ~t_p:1 ~block_size ~k:3 ~n:5 ()
  in
  let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
  let volume = Volume.create cluster ~id:9 in
  let stripes = 240 in
  Shard_cluster.spawn cluster (fun () ->
      Volume.write_batch volume
        (List.init (stripes * 3) (fun l -> (l, Bytes.make block_size 'r'))));
  Shard_cluster.run cluster;
  Shard_cluster.replace_node cluster 2;
  (* Three clients recover disjoint slot ranges via the scrubber. *)
  let t0 = Shard_cluster.now cluster in
  let batch_lat = ref [] in
  for c = 0 to 2 do
    let client = Shard_cluster.make_group_client cluster ~id:c ~group:0 in
    Shard_cluster.spawn cluster (fun () ->
        let lo = c * stripes / 3 and hi = ((c + 1) * stripes / 3) - 1 in
        (* Four parallel lanes per client, each scrubbing 16-stripe
           batches (the paper's request size), so recovery pipelines. *)
        let lanes = 4 in
        let span = (hi - lo + 1 + lanes - 1) / lanes in
        Fiber.fork_all
          (List.init lanes (fun lane () ->
               let l0 = lo + (lane * span) in
               let l1 = min hi (l0 + span - 1) in
               let rec batches from =
                 if from <= l1 then begin
                   let upto = min l1 (from + 15) in
                   let b0 = Fiber.now () in
                   ignore
                     (Scrub.scrub client
                        ~slots:(List.init (upto - from + 1) (fun i -> from + i)));
                   batch_lat := (Fiber.now () -. b0) :: !batch_lat;
                   batches (upto + 1)
                 end
               in
               batches l0))
        |> ignore)
  done;
  Shard_cluster.run cluster;
  let elapsed = Shard_cluster.now cluster -. t0 in
  (* Data rebuilt: one block of each stripe lived on the dead node, but
     recovery rewrites the full stripe; count recovered stripes in block
     terms as the paper does (node's share). *)
  let recovered_mb =
    float_of_int (stripes * block_size) /. 1e6
  in
  let mean_batch =
    List.fold_left ( +. ) 0. !batch_lat /. float_of_int (List.length !batch_lat)
  in
  Printf.printf
    "rebuilt %d stripes in %.3f s: node-share recovery rate %.1f MB/s \
     (full-stripe rewrite rate %.1f MB/s); mean 16-stripe batch latency \
     %.1f ms (paper: ~17 MB/s, ~22 ms)\n"
    stripes elapsed (recovered_mb /. elapsed)
    (recovered_mb *. 5. /. elapsed)
    (1000. *. mean_batch)

(* --- Ablations ------------------------------------------------------ *)

let ablation_strategy () =
  Bench_util.section
    "Ablation: update strategy trade-off (write latency vs resiliency, \
     4-of-8 code, t_p = 2)";
  let k = 4 and n = 8 in
  let rows =
    List.map
      (fun (label, strategy) ->
        let cfg = Config.make ~strategy ~t_p:2 ~block_size ~k ~n () in
        let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
        let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
        let stats = Shard_cluster.stats cluster in
        let lat = ref 0. in
        let msgs = ref 0. in
        Shard_cluster.spawn cluster (fun () ->
            let m0 = Stats.counter stats "msgs" in
            let t0 = Fiber.now () in
            for op = 0 to 19 do
              Client.write client ~slot:op ~i:0 (Bytes.make block_size 'x')
            done;
            lat := (Fiber.now () -. t0) /. 20.;
            msgs := (Stats.counter stats "msgs" -. m0) /. 20.);
        Shard_cluster.run cluster;
        [
          label;
          Printf.sprintf "%d" cfg.Config.t_d;
          Printf.sprintf "%.1f" !msgs;
          Printf.sprintf "%.0f us" (1e6 *. !lat);
        ])
      [
        ("serial", Config.Serial);
        ("hybrid(2)", Config.Hybrid 2);
        ("parallel", Config.Parallel);
        ("bcast", Config.Bcast);
      ]
  in
  Table.print
    ~title:
      "serial buys storage-crash tolerance with latency; parallel/bcast the \
       reverse (Theorems 1-3)"
    ~header:[ "strategy"; "t_d"; "msgs/write"; "write latency" ]
    rows

let ablation_gc () =
  Bench_util.section
    "Ablation: recentlist garbage collection on/off (metadata growth)";
  let run gc =
    let cfg =
      Config.make ~strategy:Config.Parallel ~t_p:1 ~block_size ~k:3 ~n:5 ()
    in
    let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
    let r =
      Vrunner.run_profile ~warmup:0.01
        ~gc_every:(if gc then Some 0.02 else None)
        ~blocks:64 ~sc:cluster
        ~tenants:
          (Vrunner.clients 2 (Profile.closed ~outstanding:4 ~write_frac:1. ()))
        ~duration:0.2 ()
    in
    let overhead =
      List.fold_left
        (fun acc i ->
          let e = member cluster i in
          acc +. Storage_node.overhead_bytes_per_slot e.Directory.store)
        0. [ 0; 1; 2; 3; 4 ]
      /. 5.
    in
    (r.Vrunner.run.write_ops, overhead)
  in
  let ops_gc, oh_gc = run true in
  let ops_nogc, oh_nogc = run false in
  Table.print ~title:"same workload (0.2 s, 2 clients, 64 hot blocks)"
    ~header:[ "config"; "writes"; "metadata bytes/slot" ]
    [
      [ "GC every 20 ms"; string_of_int ops_gc; Printf.sprintf "%.0f" oh_gc ];
      [ "GC disabled"; string_of_int ops_nogc; Printf.sprintf "%.0f" oh_nogc ];
    ];
  Printf.printf
    "without Fig 7's two-phase GC the recentlists grow without bound (%.0fx \
     here).\n"
    (oh_nogc /. Float.max 1. oh_gc)

let ablation_rotation () =
  Bench_util.section
    "Ablation: stripe rotation on/off (Sec 3.11, sequential writes)";
  let run rotate =
    let cfg =
      Config.make ~strategy:Config.Parallel ~t_p:1 ~block_size ~k:3 ~n:5 ()
    in
    let cluster = Shard_cluster.create ~remap_policy:`Auto ~rotate cfg in
    let r =
      Vrunner.run_profile ~warmup:0.01 ~blocks:8192 ~sc:cluster
        ~tenants:
          (Vrunner.clients 2
             (Profile.closed ~sequential:true ~outstanding:16
                ~write_frac:1. ()))
        ~duration:0.1 ()
    in
    let loads =
      List.init 5 (fun i ->
          Net.bytes_in (member cluster i).Directory.net_node)
    in
    let mx = List.fold_left Float.max 0. loads in
    let mn = List.fold_left Float.min infinity loads in
    (r.Vrunner.run.write_mbs, mx /. Float.max 1. mn)
  in
  let mbs_rot, imb_rot = run true in
  let mbs_pin, imb_pin = run false in
  Table.print ~title:"2 clients, 16 outstanding, sequential write"
    ~header:[ "layout"; "write MB/s"; "node load max/min" ]
    [
      [ "rotated"; Printf.sprintf "%.1f" mbs_rot; Printf.sprintf "%.2f" imb_rot ];
      [ "pinned"; Printf.sprintf "%.1f" mbs_pin; Printf.sprintf "%.2f" imb_pin ];
    ]

let ablation_hotspot () =
  Bench_util.section
    "Ablation: uniform vs Zipf-skewed workload (same-block write contention \
     exercises the otid ORDER path)";
  let run ?theta blocks label =
    let cfg =
      Config.make ~strategy:Config.Parallel ~t_p:1 ~block_size ~k:3 ~n:5 ()
    in
    let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
    let r =
      Vrunner.run_profile ~warmup:0.02 ~blocks ~sc:cluster
        ~tenants:
          (Vrunner.clients 4
             (Profile.closed ?theta ~outstanding:4 ~write_frac:0.5 ()))
        ~duration:0.1 ()
    in
    let stats = Shard_cluster.stats cluster in
    [
      label;
      Printf.sprintf "%.1f" r.Vrunner.run.write_mbs;
      Printf.sprintf "%.2f" (1000. *. r.Vrunner.run.write_latency);
      Printf.sprintf "%.0f" (Stats.counter stats "msgs.checktid");
    ]
  in
  Table.print
    ~title:
      "4 clients, 50% writes; ORDER retries (checktid msgs) appear only \
       under contention"
    ~header:[ "workload"; "write MB/s"; "write lat (ms)"; "checktid msgs" ]
    [
      run 4096 "uniform 4096 blocks";
      run ~theta:0.9 4096 "zipf theta=0.9";
      run 4 "4 hot blocks";
    ]

let run () =
  latency ();
  overhead ();
  loc ()

let run_ablations () =
  ablation_strategy ();
  ablation_gc ();
  ablation_rotation ()
