(* Online recovery (Sec 3.8, Fig 9d in miniature): clients keep reading
   and writing random blocks while a storage node crashes; throughput
   dips, recoveries run block-by-block as clients trip over the INIT
   replacement, and service continues throughout.

   Run with:  dune exec examples/failure_recovery.exe *)

open Ecs_volume

let () =
  let cfg =
    Config.make ~strategy:Config.Parallel ~t_p:1 ~block_size:1024 ~k:3 ~n:5 ()
  in
  let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
  Shard_cluster.on_note cluster (fun t event ->
      if event = "recovery.done" then
        Printf.printf "  t=%6.1f ms  recovery completed\n" (1000. *. t));

  let samples = ref [] in
  let { Vrunner.run = result; _ } =
    Vrunner.run_profile ~warmup:0.01
      ~events:
        [
          ( 0.05,
            fun cl ->
              Printf.printf "  t=  50.0 ms  *** storage node 2 crashes ***\n";
              Shard_cluster.replace_node cl 2 );
        ]
      ~on_sample:(fun t ~read_mbs ~write_mbs ->
        samples := (t, read_mbs +. write_mbs) :: !samples)
      ~sample_every:0.01 ~blocks:60 ~sc:cluster
      ~tenants:
        (Vrunner.clients 2 (Profile.closed ~outstanding:4 ~write_frac:0.5 ()))
      ~duration:0.15 ()
  in
  Printf.printf "\nthroughput timeline (10 ms windows):\n";
  List.iter
    (fun (t, mbs) -> Printf.printf "  t=%6.1f ms  %6.1f MB/s\n" (1000. *. t) mbs)
    (List.rev !samples);
  Printf.printf
    "\ntotals: %d reads, %d writes, %.0f recoveries, mean write latency %.2f ms\n"
    result.read_ops result.write_ops result.recoveries
    (1000. *. result.write_latency);
  Printf.printf "service was never interrupted: every operation completed.\n"
