(* Traced-run instrumentation, recorded from outside the stack:

   - a [Transport.S] wrapper that times every [call] and [pfor];
   - a [Trace.sink] that times the Fig 6 recovery phases from their
     [Recovery_phase] events and sums [Repair_result] traffic;
   - op spans opened and closed by the workload loop around each
     client call.

   Par workloads run with [pfor_workers:0], so every call and every
   pfor thunk runs on the client's domain and this state needs no
   synchronisation.  Spans go to preallocated arrays (a full buffer
   drops further spans but keeps every aggregate) and are written out
   when the run ends. *)

(* Transport kinds, as the per-layer metrics name them. *)
let kinds =
  [|
    "read";
    "swap";
    "add";
    "get_state";
    "lock";
    "reconstruct";
    "finalize";
    "gc";
  |]

let other = Array.length kinds
let pfor = other + 1
let kind_index name = Option.get (Array.find_index (String.equal name) kinds)

let kind_of_req = function
  | Proto.Read | Proto.Read_checked -> 0
  | Proto.Swap _ -> 1
  | Proto.Add _ | Proto.Add_bcast _ -> 2
  | Proto.Get_state -> 3
  | Proto.Trylock _ | Proto.Setlock _ | Proto.Getrecent _ -> 4
  | Proto.Reconstruct _ -> 5
  | Proto.Finalize _ -> 6
  | Proto.Gc_old _ | Proto.Gc_recent _ -> 7
  | _ -> other

(* Bench-level operations. *)
type op = Op_read | Op_write | Op_rebuild | Op_gc

let ops = [| Op_read; Op_write; Op_rebuild; Op_gc |]

let op_index = function
  | Op_read -> 0
  | Op_write -> 1
  | Op_rebuild -> 2
  | Op_gc -> 3

let op_name = function
  | Op_read -> "read"
  | Op_write -> "write"
  | Op_rebuild -> "rebuild"
  | Op_gc -> "gc"

let span_label l =
  if l < other then kinds.(l)
  else if l = other then "other"
  else if l = pfor then "pfor"
  else "op." ^ op_name ops.(l - pfor - 1)

(* Recovery phases timed, in the order a solo recovery runs them. *)
let phases = [| "lock"; "collect"; "decode"; "finalize" |]
let span_capacity = 1 lsl 18

type t = {
  mutable enabled : bool;
  mutable depth : int;  (** nesting of transport spans *)
  calls : int array;  (** per kind, [other] included *)
  call_ns : int array;
  mutable pfor_ns : int;
  mutable transport_ns : int;  (** top-level transport time, all ops *)
  mutable op_transport_ns : int;  (** ... inside the current op *)
  mutable op_id : int;
  lat_us : Meter.samples array;  (** per op *)
  self_us : Meter.samples array;  (** per op: latency minus transport *)
  mutable self_negative : int;  (** ops with more transport than latency *)
  phase_ns : int array;
  mutable phase : int;  (** running phase index, -1 outside recovery *)
  mutable phase_mark : int;
  mutable phase_sum : int;
  phase_sums_us : Meter.samples;  (** per completed recovery *)
  mutable repair_bytes_read : int;
  sp_label : int array;
  sp_op : int array;
  sp_t0 : int array;
  sp_t1 : int array;
  mutable sp_len : int;
  mutable sp_dropped : int;
}

let create () =
  {
    enabled = false;
    depth = 0;
    calls = Array.make (other + 1) 0;
    call_ns = Array.make (other + 1) 0;
    pfor_ns = 0;
    transport_ns = 0;
    op_transport_ns = 0;
    op_id = 0;
    lat_us = Array.map (fun _ -> Meter.samples ()) ops;
    self_us = Array.map (fun _ -> Meter.samples ()) ops;
    self_negative = 0;
    phase_ns = Array.make (Array.length phases) 0;
    phase = -1;
    phase_mark = 0;
    phase_sum = 0;
    phase_sums_us = Meter.samples ();
    repair_bytes_read = 0;
    sp_label = Array.make span_capacity 0;
    sp_op = Array.make span_capacity 0;
    sp_t0 = Array.make span_capacity 0;
    sp_t1 = Array.make span_capacity 0;
    sp_len = 0;
    sp_dropped = 0;
  }

let span t label t0 t1 =
  if t.sp_len < span_capacity then begin
    let i = t.sp_len in
    t.sp_label.(i) <- label;
    t.sp_op.(i) <- t.op_id;
    t.sp_t0.(i) <- t0;
    t.sp_t1.(i) <- t1;
    t.sp_len <- i + 1
  end
  else t.sp_dropped <- t.sp_dropped + 1

let timed t label f =
  let t0 = Meter.now_ns () in
  t.depth <- t.depth + 1;
  let finish () =
    let t1 = Meter.now_ns () in
    t.depth <- t.depth - 1;
    let dt = t1 - t0 in
    if label = pfor then t.pfor_ns <- t.pfor_ns + dt
    else begin
      t.calls.(label) <- t.calls.(label) + 1;
      t.call_ns.(label) <- t.call_ns.(label) + dt
    end;
    if t.depth = 0 then begin
      t.transport_ns <- t.transport_ns + dt;
      t.op_transport_ns <- t.op_transport_ns + dt
    end;
    span t label t0 t1
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

let wrap t (tr : Transport.t) : Transport.t =
  let module T = (val tr : Transport.S) in
  (module struct
    let client_id = T.client_id

    let call ?deadline ~slot ~pos req =
      if not t.enabled then T.call ?deadline ~slot ~pos req
      else
        timed t (kind_of_req req) (fun () -> T.call ?deadline ~slot ~pos req)

    let call_node ?deadline ~node req =
      if not t.enabled then T.call_node ?deadline ~node req
      else
        timed t (kind_of_req req) (fun () -> T.call_node ?deadline ~node req)

    let broadcast = T.broadcast

    let pfor thunks =
      if not t.enabled then T.pfor thunks
      else timed t pfor (fun () -> T.pfor thunks)

    let sleep = T.sleep
    let now = T.now
    let compute = T.compute
  end : Transport.S)

(* Phase boundaries come from the stack's own events; the time between
   two consecutive boundaries is charged to the earlier phase. *)
let sink t : Trace.sink =
 fun _ctx ev ->
  if t.enabled then
    match ev with
    | Trace.Recovery_phase p ->
      let now = Meter.now_ns () in
      if t.phase >= 0 then begin
        let dt = now - t.phase_mark in
        t.phase_ns.(t.phase) <- t.phase_ns.(t.phase) + dt;
        t.phase_sum <- t.phase_sum + dt
      end;
      let next =
        match p with
        | Trace.Ph_lock -> 0
        | Trace.Ph_collect -> 1
        | Trace.Ph_decode -> 2
        | Trace.Ph_finalize -> 3
        | Trace.Ph_adopt | Trace.Ph_weaken -> t.phase
        | Trace.Ph_done | Trace.Ph_backoff | Trace.Ph_delta -> -1
      in
      if p = Trace.Ph_lock then t.phase_sum <- 0;
      if p = Trace.Ph_done then
        Meter.push t.phase_sums_us (Meter.us_of_ns t.phase_sum);
      t.phase <- next;
      t.phase_mark <- now
    | Trace.Repair_result { bytes_read; _ } ->
      t.repair_bytes_read <- t.repair_bytes_read + bytes_read
    | _ -> ()

let op_begin t =
  t.op_id <- t.op_id + 1;
  t.op_transport_ns <- 0

let op_end t op ~t0 ~t1 =
  let i = op_index op in
  let lat = t1 - t0 in
  let self = lat - t.op_transport_ns in
  if self < 0 then t.self_negative <- t.self_negative + 1;
  Meter.push t.lat_us.(i) (Meter.us_of_ns lat);
  Meter.push t.self_us.(i) (Meter.us_of_ns self);
  span t (pfor + 1 + i) t0 t1

let ops_of t op = Meter.count t.lat_us.(op_index op)

(* Tab-separated span dump in completion order, times relative to the
   earliest start. *)
let dump t path =
  let base = ref max_int in
  for i = 0 to t.sp_len - 1 do
    base := min !base t.sp_t0.(i)
  done;
  let base = !base in
  let oc = open_out path in
  output_string oc "span\top\tstart_ns\tend_ns\n";
  for i = 0 to t.sp_len - 1 do
    Printf.fprintf oc "%s\t%d\t%d\t%d\n"
      (span_label t.sp_label.(i))
      t.sp_op.(i)
      (t.sp_t0.(i) - base)
      (t.sp_t1.(i) - base)
  done;
  if t.sp_dropped > 0 then
    Printf.fprintf oc "# %d spans dropped\n" t.sp_dropped;
  close_out oc
