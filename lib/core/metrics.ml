type latency = { l_count : int; l_total : float; l_max : float }

(* Counters are Atomic.t ints and latency aggregates are CAS-updated
   immutable records, so one registry can be fed concurrently from many
   domains (parallel clients sharing a sink) without losing updates.
   The key SETS themselves are fixed at [create] — including the
   "unknown" sentinel — so no code path ever mutates the hashtables
   after construction, which is what makes the lock-free reads sound.
   Single-domain behaviour (and rendered JSON) is unchanged. *)
type t = {
  counters : (string, int Atomic.t) Hashtbl.t;
  latencies : (string, latency Atomic.t) Hashtbl.t;
}

let counter_keys =
  List.concat_map
    (fun k ->
      let k = Trace.op_kind_to_string k in
      [ Printf.sprintf "op.%s.count" k; Printf.sprintf "op.%s.failed" k ])
    Trace.all_op_kinds
  @ List.map
      (fun p -> "recovery.phase." ^ Trace.recovery_phase_to_string p)
      Trace.all_recovery_phases
  @ [
      "rpc.retries";
      "rpc.giveups";
      "write.giveups";
      "write.order_rejections";
      "gc.batches";
      "gc.tids_acked";
      "read.hedges";
      "read.hedge_wins";
      "session.fast_fails";
      "health.transitions";
      "health.to_healthy";
      "health.to_suspect";
      "health.to_down";
      "health.to_probation";
      "read.verified";
      "read.verify_caught";
      "integrity.checksum_detected";
      "integrity.stale_detected";
      "integrity.repaired";
      "repair.bytes_read";
      "repair.bytes_shipped";
      "repair.delta_hits";
      "repair.full_rebuilds";
    ]

let zero_latency = { l_count = 0; l_total = 0.; l_max = 0. }

let create () =
  let t = { counters = Hashtbl.create 32; latencies = Hashtbl.create 8 } in
  List.iter (fun key -> Hashtbl.replace t.counters key (Atomic.make 0)) counter_keys;
  (* Pre-register the sentinel so [bump] on an unexpected key never has
     to mutate the table (which would race concurrent readers). *)
  Hashtbl.replace t.counters "unknown" (Atomic.make 0);
  List.iter
    (fun k ->
      Hashtbl.replace t.latencies (Trace.op_kind_to_string k)
        (Atomic.make zero_latency))
    Trace.all_op_kinds;
  t

let rec atomic_add r n =
  let v = Atomic.get r in
  if not (Atomic.compare_and_set r v (v + n)) then atomic_add r n

(* The schema is fixed at [create]; an unknown key is a programming
   error upstream, counted under the pre-registered sentinel rather
   than crashing the protocol from inside a sink. *)
let bump t key n =
  match Hashtbl.find_opt t.counters key with
  | Some r -> atomic_add r n
  | None -> (
    match Hashtbl.find_opt t.counters "unknown" with
    | Some r -> atomic_add r n
    | None -> ())

let rec merge_latency r (l : latency) =
  let d = Atomic.get r in
  let merged =
    {
      l_count = d.l_count + l.l_count;
      l_total = d.l_total +. l.l_total;
      l_max = Float.max d.l_max l.l_max;
    }
  in
  if not (Atomic.compare_and_set r d merged) then merge_latency r l

let observe_latency t kind elapsed =
  match Hashtbl.find_opt t.latencies (Trace.op_kind_to_string kind) with
  | None -> ()
  | Some r -> merge_latency r { l_count = 1; l_total = elapsed; l_max = elapsed }

let sink t (ctx : Trace.ctx) (event : Trace.event) =
  let op = Trace.op_kind_to_string ctx.kind in
  match event with
  | Trace.Op_begin -> ()
  | Trace.Op_end { ok = true; elapsed } ->
    bump t (Printf.sprintf "op.%s.count" op) 1;
    observe_latency t ctx.kind elapsed
  | Trace.Op_end { ok = false; _ } -> bump t (Printf.sprintf "op.%s.failed" op) 1
  | Trace.Rpc_retry _ -> bump t "rpc.retries" 1
  | Trace.Rpc_give_up _ -> bump t "rpc.giveups" 1
  | Trace.Swap_result _ -> ()
  | Trace.Add_order_rejected _ -> bump t "write.order_rejections" 1
  | Trace.Write_give_up _ -> bump t "write.giveups" 1
  | Trace.Recovery_phase p ->
    bump t ("recovery.phase." ^ Trace.recovery_phase_to_string p) 1
  | Trace.Gc_batch { sent = _; acked; _ } ->
    bump t "gc.batches" 1;
    bump t "gc.tids_acked" acked
  | Trace.Health_transition { to_; _ } ->
    bump t "health.transitions" 1;
    bump t ("health.to_" ^ to_) 1
  | Trace.Hedge_launched _ -> bump t "read.hedges" 1
  | Trace.Hedge_won _ -> bump t "read.hedge_wins" 1
  | Trace.Breaker_fast_fail _ -> bump t "session.fast_fails" 1
  | Trace.Verified_read { ok } ->
    bump t "read.verified" 1;
    if not ok then bump t "read.verify_caught" 1
  | Trace.Integrity_detected { fault = `Checksum; _ } ->
    bump t "integrity.checksum_detected" 1
  | Trace.Integrity_detected { fault = `Stale; _ } ->
    bump t "integrity.stale_detected" 1
  | Trace.Integrity_repaired _ -> bump t "integrity.repaired" 1
  | Trace.Repair_result { delta; bytes_read; bytes_shipped } ->
    bump t (if delta then "repair.delta_hits" else "repair.full_rebuilds") 1;
    bump t "repair.bytes_read" bytes_read;
    bump t "repair.bytes_shipped" bytes_shipped
  | Trace.Probe_result _ | Trace.Custom _ -> ()

let counter t key =
  match Hashtbl.find_opt t.counters key with
  | Some r -> Atomic.get r
  | None -> 0

(* The sentinel is part of the table (so [bump] never mutates it) but
   not part of the schema: keep it out of listings until something
   actually lands there, exactly as before it was pre-registered. *)
let counters t =
  Hashtbl.fold
    (fun key r acc ->
      let v = Atomic.get r in
      if key = "unknown" && v = 0 then acc else (key, v) :: acc)
    t.counters []
  |> List.sort compare

let latency t kind =
  match Hashtbl.find_opt t.latencies (Trace.op_kind_to_string kind) with
  | Some r -> Atomic.get r
  | None -> zero_latency

let latencies t =
  Hashtbl.fold (fun key r acc -> (key, Atomic.get r) :: acc) t.latencies []
  |> List.sort compare

let merge_into ~dst t =
  List.iter (fun (key, v) -> bump dst key v) (counters t);
  List.iter
    (fun (key, l) ->
      match Hashtbl.find_opt dst.latencies key with
      | Some r -> merge_latency r l
      | None -> Hashtbl.replace dst.latencies key (Atomic.make l))
    (latencies t)

let to_json ?(indent = "") t =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (indent ^ s)) fmt in
  line "{\n";
  line "  \"counters\": {\n";
  let cs = counters t in
  List.iteri
    (fun i (key, v) ->
      line "    %S: %d%s\n" key v (if i = List.length cs - 1 then "" else ","))
    cs;
  line "  },\n";
  line "  \"latency_s\": {\n";
  let ls = latencies t in
  List.iteri
    (fun i (key, l) ->
      line "    %S: { \"count\": %d, \"total\": %.9f, \"max\": %.9f }%s\n" key
        l.l_count l.l_total l.l_max
        (if i = List.length ls - 1 then "" else ","))
    ls;
  line "  }\n";
  line "}";
  Buffer.contents buf
