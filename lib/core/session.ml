exception Data_loss of string
exception Stuck of string
exception Write_abandoned of string

type t = {
  cfg : Config.t;
  transport : Transport.t;
  sink : Trace.sink;
  health : Health.t;
  locate : slot:int -> pos:int -> int;
  mutable next_op : int;
}

let create ~cfg ~sink ~locate transport =
  {
    cfg;
    transport;
    sink;
    health = Health.create cfg;
    locate;
    next_op = 0;
  }

let cfg t = t.cfg
let health t = t.health
let node_of t ~slot ~pos = t.locate ~slot ~pos

let client_id t =
  let (module T : Transport.S) = t.transport in
  T.client_id

let new_ctx t ?parent kind ~slot =
  let op_id = t.next_op in
  t.next_op <- op_id + 1;
  {
    Trace.op_id;
    client = client_id t;
    kind;
    slot;
    parent = Option.map (fun (p : Trace.ctx) -> p.Trace.op_id) parent;
  }

let emit t ctx event = t.sink ctx event

let now t =
  let (module T : Transport.S) = t.transport in
  T.now ()

let emit_transition t ctx = function
  | None -> ()
  | Some (tr : Health.transition) ->
    emit t ctx
      (Trace.Health_transition
         {
           node = tr.Health.node;
           from_ = Health.state_to_string tr.Health.from_;
           to_ = Health.state_to_string tr.Health.to_;
         })

let with_op t ctx f =
  emit t ctx Trace.Op_begin;
  let started = now t in
  match f () with
  | v ->
    emit t ctx (Trace.Op_end { ok = true; elapsed = now t -. started });
    v
  | exception e ->
    emit t ctx (Trace.Op_end { ok = false; elapsed = now t -. started });
    raise e

let sleep t d =
  let (module T : Transport.S) = t.transport in
  T.sleep d

(* The single retry/backoff loop (formerly three copies in client.ml).
   A [`Timeout] means a request or reply was lost; the callee may or may
   not have executed the request, and every protocol message is
   idempotent at the storage node (see mli), so resend blindly under
   bounded exponential backoff.  [`Node_down] is fail-stop: return at
   once.

   Every attempt is also an observation for the failure detector: its
   outcome (and RTT, on success) feeds [t.health] for the target node,
   and each attempt's loss-detection deadline is the node's current
   adaptive value rather than the transport's fixed timer. *)
let retry t ctx ~node req call =
  let cfg = t.cfg in
  let attempt_once () =
    let deadline = Health.deadline t.health ~node in
    let t0 = now t in
    let r = call ~deadline in
    let tnow = now t in
    (match r with
    | Ok _ -> emit_transition t ctx
        (Health.observe_ok t.health ~now:tnow ~node ~rtt:(tnow -. t0))
    | Error `Timeout ->
      emit_transition t ctx (Health.observe_timeout t.health ~now:tnow ~node)
    | Error `Node_down ->
      emit_transition t ctx (Health.observe_down t.health ~now:tnow ~node));
    r
  in
  let rec go attempt backoff =
    match attempt_once () with
    | Error `Timeout when attempt < cfg.Config.rpc_retry_limit ->
      emit t ctx (Trace.Rpc_retry { req; attempt; backoff });
      sleep t backoff;
      go (attempt + 1) (Float.min (2. *. backoff) cfg.Config.rpc_backoff_max)
    | Error `Timeout as r ->
      emit t ctx (Trace.Rpc_give_up { req; attempts = attempt + 1 });
      r
    | r -> r
  in
  go 0 cfg.Config.rpc_backoff

(* Fast-path requests are the ones with a degraded-mode alternative
   (reads can decode around the node, writes re-route a [`Node_down]
   through recovery), so the circuit breaker may answer for a
   quarantined node without touching the network.  Everything else —
   recovery, locks, GC, probes — always goes through: those ops are the
   probes that discover a node came back, and [find_consistent] must
   never see a breaker-synthesized failure. *)
let fast_path = function
  | Proto.Read | Proto.Swap _ | Proto.Add _ | Proto.Add_bcast _ -> true
  | _ -> false

let call t ctx ~slot ~pos req =
  let (module T : Transport.S) = t.transport in
  let node = t.locate ~slot ~pos in
  let blocked, tr = Health.fast_fail t.health ~now:(now t) ~node in
  emit_transition t ctx tr;
  if blocked && fast_path req then begin
    emit t ctx (Trace.Breaker_fast_fail { node });
    Error `Node_down
  end
  else retry t ctx ~node req (fun ~deadline -> T.call ~deadline ~slot ~pos req)

let call_node t ctx ~node req =
  let (module T : Transport.S) = t.transport in
  retry t ctx ~node req (fun ~deadline -> T.call_node ~deadline ~node req)

let broadcast t =
  let (module T : Transport.S) = t.transport in
  T.broadcast

let pfor t thunks =
  let (module T : Transport.S) = t.transport in
  T.pfor thunks

let compute t seconds =
  let (module T : Transport.S) = t.transport in
  T.compute seconds

let block_cost t per_byte = per_byte *. float_of_int t.cfg.Config.block_size
