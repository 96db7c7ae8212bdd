(* The one measurement loop.  Per tenant: a {!Volume} (one protocol
   client per group), a {!Profile} stream, an optional {!Budget} token
   bucket, request fibers (closed loop) or a dispatcher (open loop), and
   a GC fiber.  Counts are kept per tenant and summed at the end, except
   the mean latencies: running sums over all tenants in completion
   order.  Tail latencies come from the complete in-window sample (no
   reservoir), so a seeded run reports byte-identical percentiles. *)

type tenant = {
  tn_name : string;
  tn_profile : Profile.t;
  tn_qos_blocks_per_sec : float option;
  tn_seed : int;
}

let clients n profile =
  List.init n (fun c ->
      {
        tn_name = Printf.sprintf "client %d" c;
        tn_profile = profile;
        tn_qos_blocks_per_sec = None;
        tn_seed = 0x5eed + (c * 131);
      })

type tenant_result = {
  tr_name : string;
  tr_reqs : int;
  tr_blocks : int;
  tr_drops : int;
}

type size_stats = {
  ss_reqs : int;
  ss_p50 : float;
  ss_p99 : float;
  ss_mbs : float;
}

type result = {
  run : Report.run;
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

let percentile q samples =
  match samples with
  | [] -> 0.
  | _ ->
    let arr = Array.of_list samples in
    Array.sort compare arr;
    let n = Array.length arr in
    let idx = int_of_float (ceil (q *. float_of_int n)) - 1 in
    arr.(max 0 (min (n - 1) idx))

(* Per-client GC fiber (Fig 7): tids are per client, so each client
   must collect its own completed writes — groups it never wrote to are
   skipped.  Without this, recentlists go stale and the monitor starts
   repairing perfectly healthy stripes.  Each group is collected once
   per [period], the G groups' rounds staggered [period / G] apart so
   their work does not land at one instant. *)
let spawn_gc sc volume ~period ~live =
  Shard_cluster.spawn sc (fun () ->
      let groups = Volume.groups volume in
      let step = period /. float_of_int groups in
      let rec gc_loop g =
        if live () then begin
          Fiber.sleep step;
          let client = Volume.group_client volume g in
          (if Client.pending_gc client > 0 then
             try Client.collect_garbage client
             with Client.Stuck _ | Shard_cluster.Client_crashed _ -> ());
          gc_loop ((g + 1) mod groups)
        end
      in
      gc_loop 0)

(* One tenant's in-window reads, or writes. *)
type tally = {
  mutable reqs : int;
  mutable blocks : int;
  mutable samples : (int * float) list; (* (size, latency) per request *)
  mutable window : int; (* blocks since the sampler's last sample *)
}

let tally () = { reqs = 0; blocks = 0; samples = []; window = 0 }

type tenant_ctr = {
  reads : tally;
  writes : tally;
  mutable t_drops : int;
  mutable t_stalls : int; (* failed requests *)
  mutable t_stuck : int; (* block ops that drained a retry limit *)
  mutable t_abandoned : int; (* writes abandoned after a swap timeout *)
  mutable t_inflight : int;
  mutable t_depth_sum : int; (* in-flight seen at each in-window arrival *)
  mutable t_depth_samples : int;
  mutable t_depth_max : int;
}

(* Latency sums over every tenant, in completion order: the means of
   {!Report.run}.  All floats, so updates do not allocate. *)
type latency_sums = { mutable read_lat : float; mutable write_lat : float }

let phase_keys =
  List.map
    (fun p -> "recovery.phase." ^ Trace.recovery_phase_to_string p)
    Trace.all_recovery_phases

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

let run_profile ?(warmup = 0.05) ?(events = []) ?background ?on_sample
    ?(sample_every = 1.0) ?(gc_every = Some 0.05) ?check ?(blocks = 256) ~sc
    ~tenants ~duration () =
  if tenants = [] then invalid_arg "Vrunner.run_profile: no tenants";
  let block_size = (Shard_cluster.config sc).Config.block_size in
  let start = Shard_cluster.now sc in
  let measure_from = start +. warmup in
  let t_end = measure_from +. duration in
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
  let sums = { read_lat = 0.; write_lat = 0. } in
  let ctrs =
    List.mapi
      (fun idx tn ->
        let ctr =
          {
            reads = tally ();
            writes = tally ();
            t_drops = 0;
            t_stalls = 0;
            t_stuck = 0;
            t_abandoned = 0;
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
        let live () =
          Shard_cluster.now sc < t_end
          && not (Shard_cluster.client_crashed sc idx)
        in
        (* One block op, recorded for the checker.  A stuck or abandoned
           op fails its request, never escaping its fiber to kill the
           engine; a client crash unwinds the fiber.  A write that does
           not complete is unfinished for the checker. *)
        let block_op op block =
          let t0 = Shard_cluster.now sc in
          let tag =
            match (op, check) with
            | Profile.Op_write, Some _ ->
              incr next_tag;
              !next_tag
            | _ -> 0
          in
          let record_write finish =
            match (op, check) with
            | Profile.Op_write, Some ck ->
              Checker.record_write ck ~block ~tag ~start:t0 ~finish
            | _ -> ()
          in
          match
            match op with
            | Profile.Op_read ->
              let v = Volume.read volume block in
              Option.iter
                (fun ck ->
                  Checker.record_read ck ~block ~tag:(Checker.tag_of_block v)
                    ~start:t0 ~finish:(Shard_cluster.now sc))
                check
            | Profile.Op_write ->
              Volume.write volume block
                (match check with
                | Some _ -> Checker.tag_block ~size:block_size ~tag
                | None -> Bytes.make block_size (Char.chr (block land 0xff)));
              record_write (Some (Shard_cluster.now sc))
          with
          | () -> true
          | exception (Shard_cluster.Client_crashed _ as e) ->
            record_write None;
            raise e
          | exception Client.Write_abandoned _ ->
            (* Ambiguous swap timeout. *)
            ctr.t_abandoned <- ctr.t_abandoned + 1;
            record_write None;
            false
          | exception Client.Stuck _ ->
            (* Retry limit drained (e.g. an outage outlasting the budget):
               a write may or may not land. *)
            ctr.t_stuck <- ctr.t_stuck + 1;
            record_write None;
            false
        in
        let issue { Profile.op; block; size } =
          (* QoS: pay the request's size in tokens before touching the
             volume (blocking take — admission already happened). *)
          Option.iter (fun b -> Budget.take b (float_of_int size)) bucket;
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
            let t =
              match op with
              | Profile.Op_read ->
                sums.read_lat <- sums.read_lat +. lat;
                ctr.reads
              | Profile.Op_write ->
                sums.write_lat <- sums.write_lat +. lat;
                ctr.writes
            in
            t.reqs <- t.reqs + 1;
            t.blocks <- t.blocks + size;
            t.samples <- (size, lat) :: t.samples;
            t.window <- t.window + size
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
          let rec go () =
            if live () then begin
              let req = Profile.next gen in
              sample_depth ();
              ctr.t_inflight <- ctr.t_inflight + 1;
              issue req;
              ctr.t_inflight <- ctr.t_inflight - 1;
              go ()
            end
          in
          for _ = 1 to outstanding do
            Shard_cluster.spawn sc (fun () ->
                try go () with Shard_cluster.Client_crashed _ -> ())
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
                if live () then begin
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
        Option.iter (fun period -> spawn_gc sc volume ~period ~live) gc_every;
        (tn, ctr))
      tenants
  in
  let sum f = List.fold_left (fun acc (_, c) -> acc + f c) 0 ctrs in
  (* Windowed throughput sampler for timeline figures. *)
  Option.iter
    (fun f ->
      Shard_cluster.spawn sc (fun () ->
          let rec sample () =
            if Shard_cluster.now sc < t_end then begin
              Fiber.sleep sample_every;
              let mb field =
                float_of_int (sum field * block_size) /. 1.0e6 /. sample_every
              in
              (* Skip the trailing partial window. *)
              if Shard_cluster.now sc <= t_end then
                f (Shard_cluster.now sc)
                  ~read_mbs:(mb (fun c -> c.reads.window))
                  ~write_mbs:(mb (fun c -> c.writes.window));
              List.iter
                (fun (_, c) ->
                  c.reads.window <- 0;
                  c.writes.window <- 0)
                ctrs;
              sample ()
            end
          in
          sample ()))
    on_sample;
  let stats = Shard_cluster.stats sc in
  let before =
    let m = Shard_cluster.metrics sc in
    List.map (fun key -> (key, Metrics.counter m key)) metric_keys
  in
  let msgs_before = Stats.counter stats "msgs" in
  let recov_before = Stats.counter stats "note.recovery.done" in
  Shard_cluster.run sc;
  let after = Shard_cluster.metrics sc in
  let delta key = Metrics.counter after key - List.assoc key before in
  let mbs nblocks =
    float_of_int (nblocks * block_size) /. 1.0e6 /. duration
  in
  let tenant_results =
    List.map
      (fun (tn, c) ->
        {
          tr_name = tn.tn_name;
          tr_reqs = c.reads.reqs + c.writes.reqs;
          tr_blocks = c.reads.blocks + c.writes.blocks;
          tr_drops = c.t_drops;
        })
      ctrs
  in
  let latencies f =
    List.concat_map (fun (_, c) -> List.map snd (f c).samples) ctrs
  in
  let all_reads = latencies (fun c -> c.reads) in
  let all_writes = latencies (fun c -> c.writes) in
  let by_size =
    List.concat_map (fun (_, c) -> c.reads.samples @ c.writes.samples) ctrs
  in
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
  let depth_samples = sum (fun c -> c.t_depth_samples) in
  let reads = sum (fun c -> c.reads.reqs) in
  let writes = sum (fun c -> c.writes.reqs) in
  let read_blocks = sum (fun c -> c.reads.blocks) in
  let write_blocks = sum (fun c -> c.writes.blocks) in
  let run =
    {
      Report.duration;
      clients = List.length tenants;
      outstanding =
        List.fold_left
          (fun m tn ->
            match tn.tn_profile.Profile.arrival with
            | Profile.Closed { outstanding } -> max m outstanding
            | Profile.Open _ -> m)
          0 tenants;
      read_ops = reads;
      write_ops = writes;
      read_mbs = mbs read_blocks;
      write_mbs = mbs write_blocks;
      total_mbs = mbs (read_blocks + write_blocks);
      read_latency =
        (if reads = 0 then 0. else sums.read_lat /. float_of_int reads);
      write_latency =
        (if writes = 0 then 0. else sums.write_lat /. float_of_int writes);
      msgs = Stats.counter stats "msgs" -. msgs_before;
      recoveries = Stats.counter stats "note.recovery.done" -. recov_before;
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
    pf_read_reqs = reads;
    pf_write_reqs = writes;
    pf_read_mbs = run.Report.read_mbs;
    pf_write_mbs = run.Report.write_mbs;
    pf_p50_read = percentile 0.5 all_reads;
    pf_p50_write = percentile 0.5 all_writes;
    pf_p99_read = percentile 0.99 all_reads;
    pf_p99_write = percentile 0.99 all_writes;
    pf_drops = sum (fun c -> c.t_drops);
    pf_stalls = sum (fun c -> c.t_stalls);
    pf_mean_inflight =
      (if depth_samples = 0 then 0.
       else
         float_of_int (sum (fun c -> c.t_depth_sum))
         /. float_of_int depth_samples);
    pf_max_inflight =
      List.fold_left (fun m (_, c) -> max m c.t_depth_max) 0 ctrs;
    pf_sizes = sizes;
    pf_tenants = tenant_results;
    failures =
      {
        Report.write_abandoned = sum (fun c -> c.t_abandoned);
        write_stuck = sum (fun c -> c.t_stuck);
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
