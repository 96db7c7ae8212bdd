(* Profile benchmark: the six named workload profiles (Profile.all) over
   a sharded volume at G in {1, 2, 4}, plus a faulted leg per profile at
   G = 2 contrasting tail latency under a crashed pool node.

   Deterministic: every run derives from fixed seeds and the open-loop
   arrival schedules are independent of service times, so the JSON
   summary is byte-identical across invocations.  The summary is the
   input of the per-PR regression gate: `ecstore compare
   BENCH_profiles.json <fresh run>` classifies every
   profile x block-size x G key as improved/regressed/unchanged. *)

open Ecs_volume

let pool = 12
let group_counts = [ 1; 2; 4 ]
let duration = 0.2
let warmup = 0.05
let block_size = 4096
let faulted_groups = 2
let outage_at = 0.06
let outage_len = 0.05

let cfg () =
  Config.make ~t_p:1 ~block_size ~k:3 ~n:5 ~stale_write_age:0.3
    ~costs:
      {
        Config.default_costs with
        delta_per_byte = 1.0e-9;
        add_per_byte = 100.0e-9;
      }
    ()

(* Stable per-profile seed: position in Profile.all, not a structural
   hash, so reordering-independent determinism across compilers. *)
let profile_seed p =
  let rec index i = function
    | [] -> 0
    | q :: rest ->
      if q.Profile.name = p.Profile.name then i else index (i + 1) rest
  in
  0x9a0 + (131 * index 0 Profile.all)

let one_run ?(faulted = false) ~profile ~groups () =
  let placement =
    Placement.make ~seed:0x7ace ~groups ~nodes_per_group:5 ~pool ()
  in
  let sc = Shard_cluster.create ~seed:0xF0 ~placement (cfg ()) in
  let events =
    if not faulted then []
    else
      let victim = (Placement.group_nodes placement 0).(0) in
      [
        ( outage_at,
          fun sc ->
            Shard_cluster.schedule_outage sc ~at:(Shard_cluster.now sc)
              ~node:victim ~down_for:outage_len );
      ]
  in
  let tenants =
    [
      {
        Vrunner.tn_name = profile.Profile.name;
        tn_profile = profile;
        tn_qos_blocks_per_sec = None;
        tn_seed = profile_seed profile;
      };
    ]
  in
  Vrunner.run_profile ~warmup ~events ~blocks:(192 * groups) ~sc ~tenants
    ~duration ()

let ms s = 1000. *. s

let size_entries (r : Vrunner.result) =
  let open Report in
  List.map
    (fun (size, (ss : Vrunner.size_stats)) ->
      J_obj
        [
          ("size_blocks", J_int size);
          ("size_bytes", J_int (size * block_size));
          ("reqs", J_int ss.Vrunner.ss_reqs);
          ("p50_ms", J_float (ms ss.Vrunner.ss_p50, 4));
          ("p99_ms", J_float (ms ss.Vrunner.ss_p99, 4));
          ("mbs", J_float (ss.Vrunner.ss_mbs, 3));
        ])
    r.Vrunner.pf_sizes

let result_fields (r : Vrunner.result) =
  let open Report in
  [
    ("read_reqs", J_int r.Vrunner.pf_read_reqs);
    ("write_reqs", J_int r.Vrunner.pf_write_reqs);
    ("read_mbs", J_float (r.Vrunner.pf_read_mbs, 3));
    ("write_mbs", J_float (r.Vrunner.pf_write_mbs, 3));
    ("total_mbs", J_float (r.Vrunner.pf_read_mbs +. r.Vrunner.pf_write_mbs, 3));
    ("p50_read_ms", J_float (ms r.Vrunner.pf_p50_read, 4));
    ("p99_read_ms", J_float (ms r.Vrunner.pf_p99_read, 4));
    ("p50_write_ms", J_float (ms r.Vrunner.pf_p50_write, 4));
    ("p99_write_ms", J_float (ms r.Vrunner.pf_p99_write, 4));
    ("drops", J_int r.Vrunner.pf_drops);
    ("stalls", J_int r.Vrunner.pf_stalls);
    ("mean_inflight", J_float (r.Vrunner.pf_mean_inflight, 3));
    ("max_inflight", J_int r.Vrunner.pf_max_inflight);
  ]

let print_line ~label (r : Vrunner.result) =
  Printf.printf
    "%-34s %6.2f MB/s (r %6.2f + w %6.2f) | p99 r %6.2f ms, w %6.2f ms | \
     drops %4d | inflight %5.1f\n\
     %!"
    label
    (r.Vrunner.pf_read_mbs +. r.Vrunner.pf_write_mbs)
    r.Vrunner.pf_read_mbs r.Vrunner.pf_write_mbs
    (ms r.Vrunner.pf_p99_read)
    (ms r.Vrunner.pf_p99_write)
    r.Vrunner.pf_drops r.Vrunner.pf_mean_inflight

let run ?json () =
  let results =
    List.concat_map
      (fun profile ->
        List.map
          (fun groups ->
            let r = one_run ~profile ~groups () in
            print_line
              ~label:
                (Printf.sprintf "%s G=%d (%s)" profile.Profile.name groups
                   (match profile.Profile.arrival with
                   | Profile.Closed _ -> "closed"
                   | Profile.Open _ -> "open"))
              r;
            let open Report in
            J_obj
              ([
                 ("profile", J_str profile.Profile.name);
                 ("groups", J_int groups);
                 ( "arrival",
                   J_str
                     (match profile.Profile.arrival with
                     | Profile.Closed _ -> "closed"
                     | Profile.Open _ -> "open") );
               ]
              @ result_fields r
              @ [ ("sizes", J_arr (size_entries r)) ]))
          group_counts)
      Profile.all
  in
  let faulted =
    List.map
      (fun profile ->
        let r = one_run ~faulted:true ~profile ~groups:faulted_groups () in
        print_line
          ~label:
            (Printf.sprintf "%s G=%d (crashed node)" profile.Profile.name
               faulted_groups)
          r;
        let open Report in
        J_obj
          ([
             ("profile", J_str profile.Profile.name);
             ("groups", J_int faulted_groups);
           ]
          @ result_fields r))
      Profile.all
  in
  (match json with
  | None -> ()
  | Some path ->
    let c = cfg () in
    let open Report in
    let doc =
      J_obj
        [
          ( "config",
            J_obj
              [
                ("k", J_int c.Config.k);
                ("n", J_int c.Config.n);
                ("block_size", J_int block_size);
                ("pool", J_int pool);
                ("duration_s", J_float (duration, 3));
                ("outage_len_s", J_float (outage_len, 3));
              ] );
          ("results", J_arr results);
          ("faulted", J_arr faulted);
        ]
    in
    Report.write_file path doc;
    Printf.printf "wrote %s\n%!" path)
