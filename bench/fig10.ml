(* Fig 10: simulation of larger systems (n up to 32, up to 64 clients).

   (a) aggregate write throughput vs clients for several codes;
   (b) aggregate read throughput vs clients — depends on n, not k;
   (c) max write throughput vs redundancy n-k;
   (d) the broadcast optimization: single-client throughput no longer
       decays with n-k; at 64 clients storage NICs saturate instead. *)

open Ecs_volume

let block_size = 1024

let run_load ?(strategy = Config.Parallel) ~k ~n ~clients ~write ~duration () =
  let cfg = Config.make ~strategy ~t_p:1 ~block_size ~k ~n () in
  let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
  let profile =
    Profile.closed ~outstanding:8 ~write_frac:(if write then 1. else 0.) ()
  in
  let r =
    Vrunner.run_profile ~warmup:0.02 ~gc_every:(Some 0.1) ~blocks:8192
      ~sc:cluster ~tenants:(Vrunner.clients clients profile) ~duration ()
  in
  if write then r.Vrunner.run.write_mbs else r.Vrunner.run.read_mbs

let client_counts = [ 1; 2; 4; 8; 16; 32; 64 ]

let sweep ?strategy ~codes ~write ~duration () =
  List.map
    (fun (k, n) ->
      ( Printf.sprintf "%d-of-%d MB/s" k n,
        List.map
          (fun c ->
            ( float_of_int c,
              run_load ?strategy ~k ~n ~clients:c ~write ~duration () ))
          client_counts ))
    codes

let fig10a () =
  Bench_util.section "Fig 10(a): simulated aggregate write throughput vs clients";
  Table.print_series
    ~title:
      "aggregate write MB/s (max grows with n; slope falls with redundancy \
       n-k)"
    ~x_label:"clients"
    ~series:
      (sweep
         ~codes:[ (2, 4); (4, 6); (8, 10); (16, 20); (16, 24) ]
         ~write:true ~duration:0.05 ())

let fig10b () =
  Bench_util.section "Fig 10(b): simulated aggregate read throughput vs clients";
  Table.print_series
    ~title:
      "aggregate read MB/s (depends on n only: 8-of-10 tracks 6-of-10, not \
       8-of-12)"
    ~x_label:"clients"
    ~series:
      (sweep
         ~codes:[ (8, 10); (6, 10); (8, 12); (16, 20) ]
         ~write:false ~duration:0.05 ())

let fig10c () =
  Bench_util.section
    "Fig 10(c): max write throughput (64 clients) vs redundancy n-k (k = 8)";
  let series =
    [
      ( "64-client write MB/s",
        List.map
          (fun p ->
            ( float_of_int p,
              run_load ~k:8 ~n:(8 + p) ~clients:64 ~write:true ~duration:0.05
                () ))
          [ 1; 2; 3; 4; 6; 8 ] );
      ( "1-client write MB/s",
        List.map
          (fun p ->
            ( float_of_int p,
              run_load ~k:8 ~n:(8 + p) ~clients:1 ~write:true ~duration:0.05
                () ))
          [ 1; 2; 3; 4; 6; 8 ] );
    ]
  in
  Table.print_series
    ~title:"aggregate write MB/s falls as n-k grows (client bandwidth burns)"
    ~x_label:"p = n-k" ~series

let fig10d () =
  Bench_util.section
    "Fig 10(d): broadcast optimization - write throughput vs n-k (k = 8)";
  let ps = [ 1; 2; 3; 4; 6; 8 ] in
  let series =
    List.concat_map
      (fun (label, strategy) ->
        [
          ( label ^ " 1 client",
            List.map
              (fun p ->
                ( float_of_int p,
                  run_load ~strategy ~k:8 ~n:(8 + p) ~clients:1 ~write:true
                    ~duration:0.05 () ))
              ps );
          ( label ^ " 64 clients",
            List.map
              (fun p ->
                ( float_of_int p,
                  run_load ~strategy ~k:8 ~n:(8 + p) ~clients:64 ~write:true
                    ~duration:0.05 () ))
              ps );
        ])
      [ ("bcast", Config.Bcast); ("unicast", Config.Parallel) ]
  in
  Table.print_series
    ~title:
      "with broadcast the 1-client curve stays flat in n-k (client sends the \
       delta once); at 64 clients storage NICs saturate and throughput \
       decreases with n-k for both"
    ~x_label:"p = n-k" ~series

let run () =
  fig10a ();
  fig10b ();
  fig10c ();
  fig10d ()
