type t = {
  session : Session.t;
  code : Rs_code.t;
  recovery : Recovery.t;
  mutable seq : int;
}

let create ~code ~recovery session = { session; code; recovery; seq = 0 }

let fresh_tid t ~i =
  let s = t.seq in
  t.seq <- s + 1;
  { Proto.seq = s; blk = i; client = Session.client_id t.session }

type add_result = {
  ar_status : Proto.add_status;
  ar_opmode : Proto.opmode;
  ar_lmode : Proto.lmode;
}

let add_result_of_call = function
  | Ok (Proto.R_add { status; opmode; lmode }) ->
    { ar_status = status; ar_opmode = opmode; ar_lmode = lmode }
  | Error `Timeout | Error `Node_down ->
    (* Transient, as far as the writer is concerned: adds are
       deduplicated by tid, so present either as a lock-like refusal —
       the writer keeps the position in its retry set without forcing a
       recovery.  A dead node in particular must NOT route into
       recovery here: reconstruction among the live members cannot make
       the dead one reachable, so each attempt would only burn an epoch
       and a k-block rebuild's bandwidth.  Progress comes from outside
       the write: a failover remaps the member (the retried add then
       finds an INIT slot, which does route into recovery below), or
       the node returns and the add applies.  *)
    { ar_status = Proto.Add_fail; ar_opmode = Proto.Norm; ar_lmode = Proto.L1 }
  | Ok _ ->
    (* An unexpected response shape behaves like INIT-and-unlocked,
       which routes the writer into recovery (Fig 5 line 13). *)
    { ar_status = Proto.Add_fail; ar_opmode = Proto.Init; ar_lmode = Proto.Unl }

(* One batch of adds over the target positions, honouring the update
   strategy.  Returns per-position results.

   Allocation discipline: the block difference [v XOR w] is computed
   ONCE into a pooled buffer and shared by the whole fan-out; each
   unicast scales it by the target's coefficient into a second pooled
   buffer (Rs_code.update_delta_into), so the steady-state fan-out
   allocates no block-sized memory at all.  Recycling after
   Session.call returns is safe: every transport's [call] is blocking —
   the simulated network serves deliveries (including duplicates)
   synchronously within it, and the parallel transport copies payloads
   at the actor boundary — so no reference to the payload survives the
   call.

   Parallelism discipline: [pfor] interleaves the unicast thunks at
   their calls (fibers in the simulator, coroutines on the calling
   domain in the parallel transport), never across domains.  Each
   thunk claims a completion rank from an atomic counter and writes its
   own slot of a pre-sized array; the returned list (reversed
   completion order) is byte-identical to the historical
   cons-per-record list on every transport, including the simulator's
   interleaved fibers. *)
let dispatch_adds t ctx ~slot ~i ~ntid ~v ~blk ~otid ~epoch ~targets =
  let s = t.session in
  let cfg = Session.cfg s in
  let costs = cfg.Config.costs in
  let results = Array.make (List.length targets) None in
  let seq = Atomic.make 0 in
  (* Only the broadcast arm touches this, and it is one-send/
     many-receive served synchronously on the calling domain. *)
  let bcast_acc = ref [] in
  let len = Bytes.length v in
  (* diff = v - w = v XOR w, identical bits in any GF(2^h). *)
  let diff = Buf_pool.get len in
  Bytes.blit v 0 diff 0 len;
  Rs_code.xor_into t.code ~dst:diff ~src:blk;
  let unicast pos =
    Session.compute s (Session.block_cost s costs.Config.delta_per_byte);
    let dv = Buf_pool.get len in
    Rs_code.update_delta_into t.code ~j:pos ~i ~dst:dv ~diff;
    let req = Proto.Add { dv; ntid; otid; epoch } in
    let r = Session.call s ctx ~slot ~pos req in
    Buf_pool.put dv;
    let rank = Atomic.fetch_and_add seq 1 in
    results.(rank) <- Some (pos, add_result_of_call r)
  in
  (match cfg.Config.strategy with
  | Config.Serial -> List.iter unicast targets
  | Config.Parallel ->
    Session.pfor s (List.map (fun pos () -> unicast pos) targets)
  | Config.Hybrid g ->
    (* Walk the positions in groups of [g]: each group fans out in
       parallel, groups run in series. *)
    let rec groups = function
      | [] -> []
      | l ->
        let take = min g (List.length l) in
        let rec split n l =
          if n = 0 then ([], l)
          else
            match l with
            | [] -> ([], [])
            | x :: rest ->
              let a, b = split (n - 1) rest in
              (x :: a, b)
        in
        let grp, rest = split take l in
        grp :: groups rest
    in
    List.iter
      (fun grp -> Session.pfor s (List.map (fun pos () -> unicast pos) grp))
      (groups targets)
  | Config.Bcast -> (
    match Session.broadcast s with
    | None -> Session.pfor s (List.map (fun pos () -> unicast pos) targets)
    | Some bcast ->
      Session.compute s (Session.block_cost s costs.Config.delta_per_byte);
      let req = Proto.Add_bcast { dv = diff; dblk = i; ntid; otid; epoch } in
      List.iter
        (fun (pos, r) -> bcast_acc := (pos, add_result_of_call r) :: !bcast_acc)
        (bcast ~slot ~poss:targets req)));
  Buf_pool.put diff;
  !bcast_acc
  @ Array.fold_left
      (fun acc r -> match r with Some pr -> pr :: acc | None -> acc)
      [] results

(* WRITE (Fig 5). *)
let write t ~slot ~i v =
  let s = t.session in
  let cfg = Session.cfg s in
  let k = cfg.Config.k and n = cfg.Config.n in
  if i < 0 || i >= k then invalid_arg "Client.write: bad data index";
  if Bytes.length v <> cfg.Config.block_size then
    invalid_arg "Client.write: wrong block size";
  let ctx = Session.new_ctx s Trace.Op_write ~slot in
  Session.with_op s ctx @@ fun () ->
  let full = i :: List.init (n - k) (fun r -> k + r) in
  let attempts = ref 0 in
  let completed = ref None in
  while !completed = None do
    incr attempts;
    if !attempts > cfg.Config.recovery_retry_limit then
      raise (Session.Stuck (Printf.sprintf "write slot %d block %d" slot i));
    let ntid = fresh_tid t ~i in
    (* Swap the new value into the data node (Fig 5 lines 2-6).  The
       data node remembers the pre-swap value per recentlist entry, so a
       swap whose reply was lost is safely resent: the retry is answered
       from the saved value instead of re-applying (and if a concurrent
       recovery finalized the slot in between, the resend either applies
       freshly after a rollback or degenerates to a zero-delta no-op
       after a roll-forward).  Only when the whole retry budget drains
       on one live link does the writer give up explicitly. *)
    let swap_tries = ref 0 in
    let swap_result = ref None in
    let give_up reason =
      Session.emit s ctx (Trace.Write_give_up { reason });
      raise
        (Session.Write_abandoned
           (Printf.sprintf "write slot %d block %d: %s" slot i reason))
    in
    while !swap_result = None do
      incr swap_tries;
      if !swap_tries > cfg.Config.recovery_retry_limit then
        raise (Session.Stuck (Printf.sprintf "swap on slot %d block %d" slot i));
      match Session.call s ctx ~slot ~pos:i (Proto.Swap { v; ntid }) with
      | Ok (Proto.R_swap { block = Some blk; epoch; otid; _ }) ->
        Session.emit s ctx
          (Trace.Swap_result { outcome = Trace.Sw_applied; tries = !swap_tries });
        swap_result := Some (blk, epoch, otid)
      | Ok (Proto.R_swap { block = None; lmode; _ }) ->
        Session.emit s ctx
          (Trace.Swap_result { outcome = Trace.Sw_locked; tries = !swap_tries });
        if lmode = Proto.Unl || lmode = Proto.Exp then
          Recovery.start t.recovery ~parent:ctx ~slot
        else Session.sleep s cfg.Config.retry_delay
      | Ok _ -> raise (Session.Stuck "swap: unexpected response")
      | Error `Node_down ->
        Session.emit s ctx
          (Trace.Swap_result { outcome = Trace.Sw_node_down; tries = !swap_tries });
        Session.sleep s cfg.Config.retry_delay
      | Error `Timeout ->
        (* Retry budget exhausted: we cannot learn whether the swap (or
           which resend of it) landed, and the write may be half-applied.
           Report the give-up; the stale recentlist entry flags the
           half-done write to the monitor, whose recovery either
           completes it into the stripe or rolls it back — both legal
           outcomes for an unfinished write. *)
        give_up "swap retry budget exhausted on a live link"
    done;
    let blk, epoch, otid0 =
      match !swap_result with Some r -> r | None -> assert false
    in
    (* Update the redundant blocks (Fig 5 lines 7-20). *)
    let otid = ref otid0 in
    let d = ref [ i ] in
    let targets = ref (List.init (n - k) (fun r -> k + r)) in
    let order_rounds = ref 0 in
    let add_rounds = ref 0 in
    while !targets <> [] && !d <> [] do
      incr add_rounds;
      if !add_rounds > cfg.Config.recovery_retry_limit then
        raise (Session.Stuck (Printf.sprintf "adds on slot %d block %d" slot i));
      let results =
        dispatch_adds t ctx ~slot ~i ~ntid ~v ~blk ~otid:!otid ~epoch
          ~targets:!targets
      in
      let ok = List.filter (fun (_, r) -> r.ar_status = Proto.Add_ok) results in
      d := !d @ List.map fst ok;
      let retry =
        List.filter
          (fun (_, r) ->
            r.ar_status = Proto.Add_order
            || not (r.ar_lmode = Proto.Unl || r.ar_lmode = Proto.L0))
          results
        |> List.map fst
      in
      let saw_order =
        List.exists (fun (_, r) -> r.ar_status = Proto.Add_order) results
      in
      if saw_order then begin
        incr order_rounds;
        List.iter
          (fun (pos, r) ->
            if r.ar_status = Proto.Add_order then
              Session.emit s ctx
                (Trace.Add_order_rejected { pos; round = !order_rounds }))
          results
      end;
      let needs_recovery =
        List.exists
          (fun (_, r) ->
            r.ar_lmode = Proto.Exp
            || (r.ar_opmode <> Proto.Norm && r.ar_lmode = Proto.Unl)
            || (r.ar_status = Proto.Add_order
               && !order_rounds > cfg.Config.order_retry_limit))
          results
      in
      if needs_recovery then Recovery.start t.recovery ~parent:ctx ~slot;
      if saw_order then begin
        (* Fig 5 lines 15-19: learn whether the predecessor write has
           been garbage collected or a node lost our update. *)
        match !otid with
        | None -> ()
        | Some o ->
          (* The check thunks interleave at their calls: each writes
             only its own [drop] slot; the predecessor-collected verdict
             is an idempotent flag, published through an atomic. *)
          let da = Array.of_list !d in
          let drop = Array.make (Array.length da) false in
          let gc_seen = Atomic.make false in
          let checks =
            Array.to_list
              (Array.mapi
                 (fun idx pos () ->
                   match
                     Session.call s ctx ~slot ~pos
                       (Proto.Checktid { ntid; otid = o })
                   with
                   | Ok (Proto.R_check Proto.Ck_gc) -> Atomic.set gc_seen true
                   | Ok (Proto.R_check Proto.Ck_init) -> drop.(idx) <- true
                   | Ok (Proto.R_check Proto.Ck_nochange) -> ()
                   | Ok _ -> ()
                   | Error _ -> drop.(idx) <- true)
                 da)
          in
          Session.pfor s checks;
          if Atomic.get gc_seen then otid := None;
          d :=
            List.filteri (fun idx _ -> not drop.(idx)) (Array.to_list da)
      end;
      if retry <> [] then Session.sleep s cfg.Config.retry_delay;
      targets := retry
    done;
    let done_set = List.sort_uniq compare !d in
    if done_set = List.sort compare full then completed := Some ntid
  done;
  match !completed with Some tid -> tid | None -> assert false
