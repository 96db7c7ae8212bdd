(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec 6) plus the ablations listed in DESIGN.md.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig9a   # one experiment
     dune exec bench/main.exe -- --list  # list experiment names
     dune exec bench/main.exe -- smoke --json out.json   # CI smoke run
     dune exec bench/main.exe -- volume --json out.json  # volume scaling curve
     dune exec bench/main.exe -- volume --topology --json out.json
                                        # topology placement + elastic legs
     dune exec bench/main.exe -- kernel --json out.json  # coding-kernel microbench
     dune exec bench/main.exe -- profiles --json out.json # workload-profile matrix
     dune exec bench/main.exe -- integrity --json out.json # verified reads + scrub lag
     dune exec bench/main.exe -- repair --json out.json  # delta catch-up + repair floors
     dune exec bench/main.exe -- parallel --json out.json # real multicore backend (wall clock) *)

let experiments =
  [
    ("fig1", "protocol comparison table (AJX vs FAB vs GWGR)", Fig1.run);
    ("fig8a", "codes for 4-7 nodes: resiliency + compute times", Fig8.fig8a);
    ("fig8b", "compute time vs k", Fig8.fig8b);
    ("fig8c", "tolerated crashes vs n-k", Fig8.fig8c);
    ("fig9a", "write throughput vs outstanding requests", Fig9.fig9a);
    ("fig9b", "write throughput vs clients", Fig9.fig9b);
    ("fig9c", "write throughput vs redundancy", Fig9.fig9c);
    ("fig9d", "crash + online recovery timeline", Fig9.fig9d);
    ("fig10a", "large systems: write throughput vs clients", Fig10.fig10a);
    ("fig10b", "large systems: read throughput vs clients", Fig10.fig10b);
    ("fig10c", "max write throughput vs n-k", Fig10.fig10c);
    ("fig10d", "broadcast optimization", Fig10.fig10d);
    ("rw-ratio", "Sec 6.2 read vs write throughput ratio", Misc_bench.rw_ratio);
    ("validate", "Sec 6.6 simulator vs analytic model", Misc_bench.validate);
    ("recovery", "Sec 6.2 aggregate recovery throughput", Misc_bench.recovery_throughput);
    ("latency", "Sec 6.3 latency breakdown", Misc_bench.latency);
    ("overhead", "Sec 6.5 space overhead", Misc_bench.overhead);
    ("loc", "Sec 6.4 protocol complexity", Misc_bench.loc);
    ("ablation-strategy", "serial/hybrid/parallel/bcast trade-off",
     Misc_bench.ablation_strategy);
    ("ablation-gc", "garbage collection on/off", Misc_bench.ablation_gc);
    ("ablation-rotation", "stripe rotation on/off", Misc_bench.ablation_rotation);
    ("ablation-hotspot", "uniform vs zipf-skewed contention", Misc_bench.ablation_hotspot);
  ]

(* [--json FILE] or nothing; anything else prints the usage line and
   exits 1. *)
let json_arg ~usage = function
  | [ "--json"; path ] -> Some path
  | [] -> None
  | _ ->
    Printf.eprintf "usage: %s\n" usage;
    exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | "smoke" :: rest ->
    Smoke.run ?json:(json_arg ~usage:"smoke [--json FILE]" rest) ()
  | "kernel" :: rest ->
    Kernel_bench.run ?json:(json_arg ~usage:"kernel [--json FILE]" rest) ()
  | "volume" :: rest ->
    let topology, rest =
      match rest with
      | "--topology" :: rest -> (true, rest)
      | rest -> (false, rest)
    in
    let json = json_arg ~usage:"volume [--topology] [--json FILE]" rest in
    if topology then Topology_bench.run ?json () else Volume_bench.run ?json ()
  | "profiles" :: rest ->
    Profile_bench.run ?json:(json_arg ~usage:"profiles [--json FILE]" rest) ()
  | "integrity" :: rest ->
    let json = json_arg ~usage:"integrity [--json FILE]" rest in
    Integrity_bench.run ?json ()
  | "repair" :: rest ->
    Repair_bench.run ?json:(json_arg ~usage:"repair [--json FILE]" rest) ()
  | "parallel" :: rest ->
    Parallel_bench.run ?json:(json_arg ~usage:"parallel [--json FILE]" rest) ()
  | [ "--list" ] ->
    List.iter
      (fun (name, descr, _) -> Printf.printf "%-18s %s\n" name descr)
      experiments
  | [] ->
    Printf.printf
      "Reproducing every table/figure of Aguilera-Janakiraman-Xu (DSN 2005).\n\
       Absolute numbers depend on the simulated testbed constants \
       (EXPERIMENTS.md);\nshapes and orderings are the reproduction target.\n";
    List.iter (fun (_, _, run) -> run ()) experiments
  | names ->
    List.iter
      (fun name ->
        match List.find_opt (fun (n, _, _) -> n = name) experiments with
        | Some (_, _, run) -> run ()
        | None ->
          Printf.eprintf "unknown experiment %S (try --list)\n" name;
          exit 1)
      names
