(* Experiment driver behind Figs 9 and 10 and the volume benches.
   Spins up clients over one {!Shard_cluster}, each owning a {!Volume}
   (one protocol client per group) and a set of outstanding request
   fibers; optionally starts the {!Background} scheduler; measures
   aggregate throughput, mean and tail latency over the window, and can
   stream windowed throughput for timeline figures; and can record
   every operation for the regular-register checker — histories are
   keyed by logical block, i.e. per (group, slot, position), so the
   single-group checker applies unchanged.

   Tail latencies are computed from the complete in-window sample (no
   reservoir), so a seeded run reports byte-identical percentiles. *)

type result = {
  run : Report.run;
  p99_read : float; (* seconds; 0 when no sample *)
  p99_write : float;
  write_stalls : int; (* writes that tripped a retry limit (Stuck) *)
  failures : Report.failures; (* unified failure/health accounting *)
  background : Background.counters;
  repair_delta_hits : int; (* recoveries resolved by delta catch-up *)
  repair_full_rebuilds : int; (* recoveries that decoded k blocks *)
  repair_bytes_read : int; (* response bytes repair pulled from sources *)
  repair_bytes_shipped : int; (* request bytes repair pushed to targets *)
  corruptions_injected : int; (* at-rest faults ledgered by the cluster *)
  corruptions_detected : int; (* distinct injected faults caught *)
  detection_lag : float list; (* injection -> first detection, oldest first *)
}

let next_tag = ref 1

let fresh_tag () =
  incr next_tag;
  !next_tag

let percentile q samples =
  match samples with
  | [] -> 0.
  | _ ->
    let arr = Array.of_list samples in
    Array.sort compare arr;
    let n = Array.length arr in
    let idx = int_of_float (ceil (q *. float_of_int n)) - 1 in
    arr.(max 0 (min (n - 1) idx))

type counters = {
  mutable c_read_ops : int;
  mutable c_write_ops : int;
  mutable c_read_lat : float;
  mutable c_write_lat : float;
  mutable read_samples : float list;
  mutable write_samples : float list;
  mutable stalls : int;
  mutable abandoned : int;
  (* window counters for the sampler *)
  mutable w_read_ops : int;
  mutable w_write_ops : int;
}

let run ?(outstanding = 8) ?(warmup = 0.05) ?(events = []) ?background
    ?on_sample ?(sample_every = 1.0) ?(gc_every = Some 0.05) ?check ~sc
    ~clients ~duration ~workload () =
  let cfg = Shard_cluster.config sc in
  let block_size = cfg.Config.block_size in
  let start = Shard_cluster.now sc in
  let measure_from = start +. warmup in
  let t_end = measure_from +. duration in
  let ctr =
    {
      c_read_ops = 0;
      c_write_ops = 0;
      c_read_lat = 0.;
      c_write_lat = 0.;
      read_samples = [];
      write_samples = [];
      stalls = 0;
      abandoned = 0;
      w_read_ops = 0;
      w_write_ops = 0;
    }
  in
  let in_window t = t >= measure_from && t <= t_end in
  List.iter
    (fun (at, action) ->
      Engine.schedule (Shard_cluster.engine sc) ~at:(start +. at) (fun () ->
          action sc))
    events;
  let bg =
    Option.map
      (fun (rate, tasks) -> Background.start sc ~rate ~tasks ~until:t_end)
      background
  in
  for c = 0 to clients - 1 do
    let volume = Volume.create sc ~id:c in
    let gen = Generator.create ~seed:(0x5eed + (c * 131)) workload in
    let do_read block =
      let t0 = Shard_cluster.now sc in
      match Volume.read volume block with
      | v ->
        let t1 = Shard_cluster.now sc in
        (match check with
        | Some ck ->
          Checker.record_read ck ~block ~tag:(Checker.tag_of_block v)
            ~start:t0 ~finish:t1
        | None -> ());
        if in_window t1 then begin
          ctr.c_read_ops <- ctr.c_read_ops + 1;
          ctr.c_read_lat <- ctr.c_read_lat +. (t1 -. t0);
          ctr.read_samples <- (t1 -. t0) :: ctr.read_samples;
          ctr.w_read_ops <- ctr.w_read_ops + 1
        end
      | exception Client.Stuck _ -> ctr.stalls <- ctr.stalls + 1
    in
    let do_write block =
      let t0 = Shard_cluster.now sc in
      let tag, v =
        match check with
        | Some _ ->
          let tag = fresh_tag () in
          (tag, Checker.tag_block ~size:block_size ~tag)
        | None -> (0, Bytes.make block_size (Char.chr (block land 0xff)))
      in
      let record finish =
        Option.iter
          (fun ck -> Checker.record_write ck ~block ~tag ~start:t0 ~finish)
          check
      in
      match Volume.write volume block v with
      | () ->
        let t1 = Shard_cluster.now sc in
        record (Some t1);
        if in_window t1 then begin
          ctr.c_write_ops <- ctr.c_write_ops + 1;
          ctr.c_write_lat <- ctr.c_write_lat +. (t1 -. t0);
          ctr.write_samples <- (t1 -. t0) :: ctr.write_samples;
          ctr.w_write_ops <- ctr.w_write_ops + 1
        end
      | exception (Shard_cluster.Client_crashed _ as e) ->
        record None;
        raise e
      | exception Client.Write_abandoned _ ->
        (* Ambiguous swap timeout: unfinished for the checker. *)
        ctr.abandoned <- ctr.abandoned + 1;
        record None
      | exception Client.Stuck _ ->
        (* Retry limit drained (e.g. an outage outlasting the budget):
           the write may or may not land — unfinished, and counted. *)
        ctr.stalls <- ctr.stalls + 1;
        record None
    in
    let live () =
      Shard_cluster.now sc < t_end && not (Shard_cluster.client_crashed sc c)
    in
    let request_loop () =
      let rec go () =
        if live () then begin
          let { Generator.op; block } = Generator.next gen in
          (match op with
          | Generator.Op_read -> do_read block
          | Generator.Op_write -> do_write block);
          go ()
        end
      in
      try go () with Shard_cluster.Client_crashed _ -> ()
    in
    for _ = 1 to outstanding do
      Shard_cluster.spawn sc request_loop
    done;
    (* Per-client GC fibers (Fig 7): tids are per client, so each client
       must collect its own completed writes — groups it never wrote to
       are skipped.  Without this, recentlists go stale and the monitor
       starts repairing perfectly healthy stripes. *)
    match gc_every with
    | None -> ()
    | Some period ->
      Shard_cluster.spawn sc (fun () ->
          let rec gc_loop () =
            if live () then begin
              Fiber.sleep period;
              for g = 0 to Volume.groups volume - 1 do
                let client = Volume.group_client volume g in
                if Client.pending_gc client > 0 then
                  try Client.collect_garbage client
                  with Client.Stuck _ | Shard_cluster.Client_crashed _ -> ()
              done;
              gc_loop ()
            end
          in
          gc_loop ())
  done;
  (* Windowed throughput sampler for timeline figures. *)
  (match on_sample with
  | None -> ()
  | Some f ->
    Shard_cluster.spawn sc (fun () ->
        let rec sample () =
          if Shard_cluster.now sc < t_end then begin
            Fiber.sleep sample_every;
            let mb ops =
              float_of_int (ops * block_size) /. 1.0e6 /. sample_every
            in
            (* Skip the trailing partial window. *)
            if Shard_cluster.now sc <= t_end then
              f (Shard_cluster.now sc) ~read_mbs:(mb ctr.w_read_ops)
                ~write_mbs:(mb ctr.w_write_ops);
            ctr.w_read_ops <- 0;
            ctr.w_write_ops <- 0;
            sample ()
          end
        in
        sample ()));
  let stats = Shard_cluster.stats sc in
  let phase_keys =
    List.map
      (fun p -> "recovery.phase." ^ Trace.recovery_phase_to_string p)
      Trace.all_recovery_phases
  in
  let metric_keys =
    [
      "rpc.retries";
      "rpc.giveups";
      "write.giveups";
      "read.hedges";
      "read.hedge_wins";
      "session.fast_fails";
      "health.to_down";
      "repair.delta_hits";
      "repair.full_rebuilds";
      "repair.bytes_read";
      "repair.bytes_shipped";
    ]
    @ phase_keys
  in
  let before =
    let m = Shard_cluster.metrics sc in
    List.map (fun key -> (key, Metrics.counter m key)) metric_keys
  in
  let msgs_before = Stats.counter stats "msgs" in
  let recov_before = Stats.counter stats "note.recovery.done" in
  Shard_cluster.run sc;
  let after = Shard_cluster.metrics sc in
  let delta key = Metrics.counter after key - List.assoc key before in
  let msgs = Stats.counter stats "msgs" -. msgs_before in
  let recoveries = Stats.counter stats "note.recovery.done" -. recov_before in
  let mb ops = float_of_int (ops * block_size) /. 1.0e6 /. duration in
  let run =
    {
      Report.duration;
      clients;
      outstanding;
      read_ops = ctr.c_read_ops;
      write_ops = ctr.c_write_ops;
      read_mbs = mb ctr.c_read_ops;
      write_mbs = mb ctr.c_write_ops;
      total_mbs = mb (ctr.c_read_ops + ctr.c_write_ops);
      read_latency =
        (if ctr.c_read_ops = 0 then 0.
         else ctr.c_read_lat /. float_of_int ctr.c_read_ops);
      write_latency =
        (if ctr.c_write_ops = 0 then 0.
         else ctr.c_write_lat /. float_of_int ctr.c_write_ops);
      msgs;
      recoveries;
      rpc_retries = delta "rpc.retries";
      rpc_giveups = delta "rpc.giveups";
      write_giveups = delta "write.giveups";
      recovery_phases =
        List.filter_map
          (fun key -> match delta key with 0 -> None | n -> Some (key, n))
          phase_keys;
    }
  in
  {
    run;
    p99_read = percentile 0.99 ctr.read_samples;
    p99_write = percentile 0.99 ctr.write_samples;
    write_stalls = ctr.stalls;
    failures =
      {
        Report.write_abandoned = ctr.abandoned;
        write_stuck = ctr.stalls;
        hedges = delta "read.hedges";
        hedge_wins = delta "read.hedge_wins";
        fast_fails = delta "session.fast_fails";
        quarantines = delta "health.to_down";
      };
    background =
      (match bg with Some b -> Background.counters b | None -> Background.zero);
    repair_delta_hits = delta "repair.delta_hits";
    repair_full_rebuilds = delta "repair.full_rebuilds";
    repair_bytes_read = delta "repair.bytes_read";
    repair_bytes_shipped = delta "repair.bytes_shipped";
    corruptions_injected = Shard_cluster.integrity_injected sc;
    corruptions_detected = Shard_cluster.integrity_detected sc;
    detection_lag = Shard_cluster.integrity_lag sc;
  }

(* ------------------------------------------------------------------ *)
(* Profile-driven, multi-tenant runs.

   Several tenants share one volume (same shard cluster, same logical
   block space), each driving its own {!Profile} — closed-loop with a
   fixed fiber count, or open-loop with seeded Poisson arrivals and
   bounded in-flight admission (excess arrivals are shed and counted,
   never queued, so latency-under-load is visible instead of being
   masked by head-of-line blocking).  A tenant may be metered by a
   per-tenant token bucket ({!Budget}, in blocks per simulated second):
   every request pays its size in tokens before being issued, so a
   greedy tenant is admission-limited to its configured share while an
   unmetered one competes freely. *)

type tenant = {
  tn_name : string;
  tn_profile : Profile.t;
  tn_qos_blocks_per_sec : float option;
  tn_seed : int;
}

type tenant_result = {
  tr_name : string;
  tr_read_reqs : int;
  tr_write_reqs : int;
  tr_read_blocks : int;
  tr_write_blocks : int;
  tr_drops : int;
  tr_stalls : int;
  tr_mean : float; (* seconds; 0 when no sample *)
  tr_p50 : float;
  tr_p99 : float;
  tr_mbs : float;
}

type size_stats = {
  ss_reqs : int;
  ss_p50 : float;
  ss_p99 : float;
  ss_mbs : float;
}

type profile_result = {
  pf_label : string;
  pf_duration : float;
  pf_read_reqs : int;
  pf_write_reqs : int;
  pf_read_mbs : float;
  pf_write_mbs : float;
  pf_p50_read : float;
  pf_p50_write : float;
  pf_p99_read : float;
  pf_p99_write : float;
  pf_drops : int;
  pf_stalls : int;
  pf_mean_inflight : float;
  pf_max_inflight : int;
  pf_sizes : (int * size_stats) list; (* keyed by request size in blocks *)
  pf_tenants : tenant_result list;
}

type tenant_ctr = {
  mutable t_read_reqs : int;
  mutable t_write_reqs : int;
  mutable t_read_blocks : int;
  mutable t_write_blocks : int;
  mutable t_drops : int;
  mutable t_stalls : int;
  mutable t_samples : float list; (* all request latencies *)
  mutable t_read_samples : float list;
  mutable t_write_samples : float list;
  mutable t_by_size : (int * float) list; (* (size, latency) per request *)
  mutable t_inflight : int;
  mutable t_depth_sum : int; (* in-flight seen at each in-window arrival *)
  mutable t_depth_samples : int;
  mutable t_depth_max : int;
}

let run_profile ?(warmup = 0.05) ?(events = []) ?(blocks = 256) ~sc ~tenants
    ~duration () =
  if tenants = [] then invalid_arg "Vrunner.run_profile: no tenants";
  let cfg = Shard_cluster.config sc in
  let block_size = cfg.Config.block_size in
  let start = Shard_cluster.now sc in
  let measure_from = start +. warmup in
  let t_end = measure_from +. duration in
  let in_window t = t >= measure_from && t <= t_end in
  List.iter
    (fun (at, action) ->
      Engine.schedule (Shard_cluster.engine sc) ~at:(start +. at) (fun () ->
          action sc))
    events;
  let ctrs =
    List.mapi
      (fun idx tn ->
        let ctr =
          {
            t_read_reqs = 0;
            t_write_reqs = 0;
            t_read_blocks = 0;
            t_write_blocks = 0;
            t_drops = 0;
            t_stalls = 0;
            t_samples = [];
            t_read_samples = [];
            t_write_samples = [];
            t_by_size = [];
            t_inflight = 0;
            t_depth_sum = 0;
            t_depth_samples = 0;
            t_depth_max = 0;
          }
        in
        let volume = Volume.create sc ~id:idx in
        let gen = Profile.generator tn.tn_profile ~seed:tn.tn_seed ~blocks in
        let bucket =
          Option.map
            (fun rate ->
              (* Burst of ~50 ms of tokens, but always at least one
                 largest request so big transfers cannot deadlock. *)
              let cap =
                Float.max (rate /. 20.)
                  (float_of_int (Profile.max_size tn.tn_profile))
              in
              Budget.create ~rate ~cap ~now:(fun () -> Shard_cluster.now sc))
            tn.tn_qos_blocks_per_sec
        in
        (* One block op, exception-safe: a Stuck/abandoned op must fail
           the request, never escape its fiber and kill the engine. *)
        let block_op op l =
          try
            (match op with
            | Generator.Op_read -> ignore (Volume.read volume l)
            | Generator.Op_write ->
              Volume.write volume l
                (Bytes.make block_size (Char.chr (l land 0xff))));
            true
          with Client.Stuck _ | Client.Write_abandoned _ -> false
        in
        let issue ({ Profile.op; block; size } as _req) =
          (* QoS: pay the request's size in tokens before touching the
             volume (blocking take — admission already happened). *)
          (match bucket with
          | Some b -> Budget.take b (float_of_int size)
          | None -> ());
          let t0 = Shard_cluster.now sc in
          let ok =
            if size = 1 then block_op op block
            else
              Fiber.fork_all
                (List.init size (fun j () -> block_op op (block + j)))
              |> List.for_all Fun.id
          in
          let t1 = Shard_cluster.now sc in
          if not ok then ctr.t_stalls <- ctr.t_stalls + 1
          else if in_window t1 then begin
            let lat = t1 -. t0 in
            (match op with
            | Generator.Op_read ->
              ctr.t_read_reqs <- ctr.t_read_reqs + 1;
              ctr.t_read_blocks <- ctr.t_read_blocks + size;
              ctr.t_read_samples <- lat :: ctr.t_read_samples
            | Generator.Op_write ->
              ctr.t_write_reqs <- ctr.t_write_reqs + 1;
              ctr.t_write_blocks <- ctr.t_write_blocks + size;
              ctr.t_write_samples <- lat :: ctr.t_write_samples);
            ctr.t_samples <- lat :: ctr.t_samples;
            ctr.t_by_size <- (size, lat) :: ctr.t_by_size
          end
        in
        let sample_depth () =
          if in_window (Shard_cluster.now sc) then begin
            ctr.t_depth_sum <- ctr.t_depth_sum + ctr.t_inflight;
            ctr.t_depth_samples <- ctr.t_depth_samples + 1;
            ctr.t_depth_max <- max ctr.t_depth_max ctr.t_inflight
          end
        in
        (match tn.tn_profile.Profile.arrival with
        | Profile.Closed { outstanding } ->
          for _ = 1 to outstanding do
            Shard_cluster.spawn sc (fun () ->
                let rec go () =
                  if Shard_cluster.now sc < t_end then begin
                    let req = Profile.next gen in
                    sample_depth ();
                    ctr.t_inflight <- ctr.t_inflight + 1;
                    issue req;
                    ctr.t_inflight <- ctr.t_inflight - 1;
                    go ()
                  end
                in
                go ())
          done
        | Profile.Open { max_inflight; _ } ->
          (* Open loop: the dispatcher samples the arrival schedule from
             its own seeded stream — gaps and requests are drawn whether
             or not the arrival is admitted, so the schedule never
             depends on service times or drops. *)
          Shard_cluster.spawn sc (fun () ->
              let rec go () =
                let gap = Profile.next_gap gen in
                Fiber.sleep gap;
                if Shard_cluster.now sc < t_end then begin
                  let req = Profile.next gen in
                  sample_depth ();
                  if ctr.t_inflight >= max_inflight then begin
                    if in_window (Shard_cluster.now sc) then
                      ctr.t_drops <- ctr.t_drops + 1
                  end
                  else begin
                    ctr.t_inflight <- ctr.t_inflight + 1;
                    Shard_cluster.spawn sc (fun () ->
                        issue req;
                        ctr.t_inflight <- ctr.t_inflight - 1)
                  end;
                  go ()
                end
              in
              go ()));
        (tn, ctr))
      tenants
  in
  Shard_cluster.run sc;
  let mbs nblocks =
    float_of_int (nblocks * block_size) /. 1.0e6 /. duration
  in
  let mean = function
    | [] -> 0.
    | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  let tenant_results =
    List.map
      (fun (tn, c) ->
        {
          tr_name = tn.tn_name;
          tr_read_reqs = c.t_read_reqs;
          tr_write_reqs = c.t_write_reqs;
          tr_read_blocks = c.t_read_blocks;
          tr_write_blocks = c.t_write_blocks;
          tr_drops = c.t_drops;
          tr_stalls = c.t_stalls;
          tr_mean = mean c.t_samples;
          tr_p50 = percentile 0.5 c.t_samples;
          tr_p99 = percentile 0.99 c.t_samples;
          tr_mbs = mbs (c.t_read_blocks + c.t_write_blocks);
        })
      ctrs
  in
  let all_reads = List.concat_map (fun (_, c) -> c.t_read_samples) ctrs in
  let all_writes = List.concat_map (fun (_, c) -> c.t_write_samples) ctrs in
  let by_size = List.concat_map (fun (_, c) -> c.t_by_size) ctrs in
  let sizes =
    List.sort_uniq compare (List.map fst by_size)
    |> List.map (fun size ->
           let lats = List.filter_map
               (fun (s, l) -> if s = size then Some l else None)
               by_size
           in
           let reqs = List.length lats in
           ( size,
             {
               ss_reqs = reqs;
               ss_p50 = percentile 0.5 lats;
               ss_p99 = percentile 0.99 lats;
               ss_mbs = mbs (reqs * size);
             } ))
  in
  let sum f = List.fold_left (fun acc (_, c) -> acc + f c) 0 ctrs in
  let depth_sum = sum (fun c -> c.t_depth_sum) in
  let depth_samples = sum (fun c -> c.t_depth_samples) in
  {
    pf_label =
      String.concat "+"
        (List.sort_uniq compare
           (List.map (fun t -> t.tn_profile.Profile.name) tenants));
    pf_duration = duration;
    pf_read_reqs = sum (fun c -> c.t_read_reqs);
    pf_write_reqs = sum (fun c -> c.t_write_reqs);
    pf_read_mbs = mbs (sum (fun c -> c.t_read_blocks));
    pf_write_mbs = mbs (sum (fun c -> c.t_write_blocks));
    pf_p50_read = percentile 0.5 all_reads;
    pf_p50_write = percentile 0.5 all_writes;
    pf_p99_read = percentile 0.99 all_reads;
    pf_p99_write = percentile 0.99 all_writes;
    pf_drops = sum (fun c -> c.t_drops);
    pf_stalls = sum (fun c -> c.t_stalls);
    pf_mean_inflight =
      (if depth_samples = 0 then 0.
       else float_of_int depth_sum /. float_of_int depth_samples);
    pf_max_inflight =
      List.fold_left (fun m (_, c) -> max m c.t_depth_max) 0 ctrs;
    pf_sizes = sizes;
    pf_tenants = tenant_results;
  }
