(* Sequential I/O and stripe rotation (Sec 3.11): consecutive logical
   blocks map to different storage nodes and the redundant blocks rotate
   stripe to stripe, so a pipelined sequential writer spreads load over
   every node instead of hammering the parity nodes.

   Compares rotated vs. pinned layout on the same sequential workload.

   Run with:  dune exec examples/sequential_io.exe *)

open Ecs_volume

let run_sequential ~rotate =
  let cfg =
    Config.make ~strategy:Config.Parallel ~t_p:1 ~block_size:1024 ~k:3 ~n:5 ()
  in
  let cluster = Shard_cluster.create ~remap_policy:`Auto ~rotate cfg in
  let { Vrunner.run = result; _ } =
    Vrunner.run_profile ~warmup:0.01 ~blocks:4096 ~sc:cluster
      ~tenants:
        (Vrunner.clients 1
           (Profile.closed ~sequential:true ~outstanding:16 ~write_frac:1. ()))
      ~duration:0.2 ()
  in
  (* Per-node receive bytes show the load distribution. *)
  let loads =
    List.init cfg.Config.n (fun i ->
        let e = Directory.lookup (Shard_cluster.group_directory cluster 0) i in
        Net.bytes_in e.Directory.net_node /. 1.0e6)
  in
  (result, loads)

let () =
  Printf.printf "sequential write of 4096 consecutive 1KB blocks, 3-of-5 code,\n";
  Printf.printf "one client with 16 outstanding requests (pipelined):\n\n";
  List.iter
    (fun rotate ->
      let result, loads = run_sequential ~rotate in
      Printf.printf "%-12s  %6.1f MB/s   per-node MB received: [%s]\n"
        (if rotate then "rotated" else "pinned")
        result.Report.write_mbs
        (String.concat "; " (List.map (Printf.sprintf "%.1f") loads));
      let mx = List.fold_left Float.max 0. loads in
      let mn = List.fold_left Float.min infinity loads in
      Printf.printf "%-12s  load imbalance max/min = %.2f\n\n" ""
        (if mn > 0. then mx /. mn else infinity))
    [ true; false ];
  Printf.printf
    "rotation evens the per-node load; with a pinned layout the parity\n\
     nodes absorb every write's add traffic (the RAID-4 bottleneck).\n"
