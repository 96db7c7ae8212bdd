(* The metrics every run reports, with their units.  BENCHMARK.json
   lists the same names; [Spec.check] fails a run where the two
   disagree.  Each workload measures the metrics of the layers it
   enters; a per-layer metric of a layer it never enters (recovery
   phases on small-mixed, simulator events on a real-stack workload)
   is reported as the 0 it measured. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("mb_per_s", "MiB/s");
    ("p50_us", "us");
    ("p99_us", "us");
    ("space_amp", "x");
    ("live_heap_mb", "MiB");
  ]

let transport_kinds = Array.to_list Tracer.kinds
let handoff_kinds = [ "read"; "swap"; "add"; "get_state" ]

let per_layer =
  [
    ("gf.scale_xor_mb_per_s", "MiB/s");
    ("gf.delta_mb_per_s", "MiB/s");
    ("gf.xor_mb_per_s", "MiB/s");
    ("gf.alloc_bytes_per_op", "B");
    ("rs.update_delta_us", "us");
    ("rs.decode_us", "us");
    ("rs.reconstruct_us", "us");
    ("storage.read_us", "us");
    ("storage.swap_us", "us");
    ("storage.add_us", "us");
    ("storage.get_state_us", "us");
    ("storage.gc_recent_us", "us");
    ("storage.overhead_bytes_per_slot", "B");
  ]
  @ List.concat_map
      (fun k ->
        [
          ("transport." ^ k ^ ".calls_per_op", "count");
          ("transport." ^ k ^ ".mean_us", "us");
        ])
      transport_kinds
  @ [ ("transport.busy_frac", "frac"); ("transport.pfor_us_per_op", "us") ]
  @ List.map (fun k -> ("par.handoff_us." ^ k, "us")) handoff_kinds
  @ [
      ("op.read_p50_us", "us");
      ("op.read_p99_us", "us");
      ("op.write_p50_us", "us");
      ("op.write_p99_us", "us");
      ("core.read_self_us", "us");
      ("core.write_self_us", "us");
      ("core.rebuild_self_us", "us");
      ("core.minor_words_per_op", "words");
      ("core.gc_round_us", "us");
      ("core.gc_rpcs_per_round", "count");
      ("core.rpc_retries_per_op", "count");
      ("core.order_rejections_per_op", "count");
      ("core.recovery_backoffs_per_op", "count");
    ]
  @ List.map
      (fun p -> ("recovery." ^ p ^ "_us", "us"))
      (Array.to_list Tracer.phases)
  @ [
      ("repair.bytes_read_per_rebuilt_byte", "B/B");
      ("sim.events_per_op", "count");
      ("sim.minor_words_per_op", "words");
      ("sim.ns_per_event", "ns");
      ("sim.major_collections", "count");
      ("sim.heap_mb_end", "MiB");
      ("sim.simulated_mb_per_s", "MB/s");
      ("sim.simulated_read_p99_ms", "ms");
      ("trace.overhead_frac", "frac");
    ]

(* The table filled from [values]: names the workload did not measure
   read 0.  A name outside the table is a programming error. *)
let fill table ?(notes = []) values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name table) then
        invalid_arg ("Layers.fill: unknown metric " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      let value = Option.value (List.assoc_opt name values) ~default:0. in
      let note = Option.value (List.assoc_opt name notes) ~default:"" in
      Result.metric ~note name unit_ value)
    table
