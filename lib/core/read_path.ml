type t = { session : Session.t; code : Rs_code.t; recovery : Recovery.t }

let create ~code ~recovery session = { session; code; recovery }

(* READ (Fig 4), as a loop that a hedge can abandon: [stop] is probed
   between attempts, and [None] is only ever returned because it fired
   (some other fiber produced the value). *)
let read_primary t ctx ~slot ~i ~stop =
  let s = t.session in
  let cfg = Session.cfg s in
  let rec loop attempts =
    if stop () then None
    else if attempts > cfg.Config.recovery_retry_limit then
      raise (Session.Stuck (Printf.sprintf "read slot %d block %d" slot i))
    else
      match Session.call s ctx ~slot ~pos:i Proto.Read with
      | Ok (Proto.R_read { block = Some v; _ }) -> Some v
      | Ok (Proto.R_read { block = None; lmode }) ->
        if lmode = Proto.Unl || lmode = Proto.Exp then begin
          Recovery.start t.recovery ~parent:ctx ~slot;
          loop (attempts + 1)
        end
        else begin
          (* Locked by a live recoverer: its recovery terminates
             (bounded retries) or its crash expires the lock, so
             waiting here makes progress eventually — don't charge the
             watchdog.  Under message faults a recovery can hold locks
             for many timeout-plus-backoff cycles. *)
          Session.sleep s cfg.Config.retry_delay;
          loop attempts
        end
      | Ok _ -> raise (Session.Stuck "read: unexpected response")
      | Error _ ->
        (* Dead and not yet remapped (recovery cannot restore the
           block either, wait for the directory), or a link so lossy
           the retry budget ran out: reads are idempotent, keep
           trying.  A quarantined node lands here too, via the
           breaker's fast [`Node_down]. *)
        Session.sleep s cfg.Config.retry_delay;
        loop (attempts + 1)
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Lock-free health check and degraded read (extensions; see mli). *)

type slot_health = {
  sh_live : int;
  sh_consistent : int;
  sh_init : int;
  sh_healthy : bool;
}

(* Parallel state snapshot of all n nodes.  Epoch-stale members (revived
   nodes that missed a finalize) are masked to INIT-like views so no
   degraded decode or consistency check builds on a stale base. *)
let snapshot_states t ctx ~slot =
  let n = (Session.cfg t.session).Config.n in
  let states = Array.make n None in
  Session.pfor t.session
    (List.init n (fun pos () ->
         states.(pos) <- Recovery.poll_state t.session ctx ~slot ~pos));
  Recovery.mask_epoch_stale states;
  states

let verify_slot t ~slot =
  let cfg = Session.cfg t.session in
  let n = cfg.Config.n in
  let ctx = Session.new_ctx t.session Trace.Op_verify ~slot in
  Session.with_op t.session ctx (fun () ->
      let states = snapshot_states t ctx ~slot in
      let live =
        Array.fold_left
          (fun acc st ->
            match st with
            | Some v when v.Proto.st_opmode <> Proto.Init -> acc + 1
            | _ -> acc)
          0 states
      in
      let cset = Recovery.find_consistent ~k:cfg.Config.k ~n states in
      let consistent = List.length cset in
      {
        sh_live = live;
        sh_consistent = consistent;
        sh_init = n - live;
        sh_healthy = (live = n && consistent = n);
      })

(* One decode-from-survivors attempt under the caller's context.
   Returns a committed consistent value or [None]; never decodes a torn
   stripe (same recentlist test recovery uses), which is what makes the
   result legal for a regular register even when raced against the
   primary path.

   The decode is attempted only when the data node is actually
   unreachable (no response, or a blank INIT replacement).  The data
   node is the serialization point for its block: while it answers, its
   block is the register and the redundant columns are only a
   *derived* view — one that transiently disagrees under write/GC/
   recovery churn (a resent swap racing a rollback, recentlists
   collected on one node but not yet on another).  [find_consistent]
   then innocently picks a redundant-only cut and the decode yields a
   stale committed value, which a reader must never return while newer
   writes have completed at the live data node.  Recovery avoids this
   by resolving every unfinished tid before reconstructing; a lock-free
   read cannot, so it never overrules a reachable data node: it
   answers with that node's own block instead of a decode. *)
let degraded_with_ctx t ctx ~slot ~i =
  let s = t.session in
  let cfg = Session.cfg s in
  let k = cfg.Config.k in
  let states = snapshot_states t ctx ~slot in
  match states.(i) with
  | Some { Proto.st_opmode = Proto.Norm; st_block = Some b; _ } ->
    (* Reachable data node: its block is the register. *)
    Some b
  | Some { Proto.st_opmode = Proto.Recons; _ }
  | Some { Proto.st_opmode = Proto.Norm; st_block = None; _ } ->
    (* Mid-recovery: let the primary path wait out the lock rather
       than guess. *)
    None
  | None | Some { Proto.st_opmode = Proto.Init; _ } ->
    (* Dead, or a blank replacement recovery has not reached yet: the
       one case where decoding around the data node is both needed and
       sound. *)
    let cset = Recovery.find_consistent ~k ~n:cfg.Config.n states in
    if List.length cset < k || List.mem i cset then None
    else
      let avail =
        List.filter_map
          (fun pos ->
            match states.(pos) with
            | Some { Proto.st_block = Some b; _ } -> Some (pos, b)
            | _ -> None)
          cset
      in
      if List.length avail < k then None
      else begin
        Session.compute s
          (float_of_int k
          *. Session.block_cost s cfg.Config.costs.Config.decode_per_byte);
        Some (Rs_code.repair t.code avail ~wanted:[ i ]).(0)
      end

(* Hedged read: race the primary loop against one delayed degraded
   decode, first value wins.  The environment has no fiber
   cancellation, so the loser is not killed — the primary loop checks
   the winner cell between attempts and bows out, and the hedge fiber
   re-checks it after its delay; worst case the loser costs one more
   deadline-plus-backoff cycle.  [Session.Stuck] from the primary is
   held back until we know the hedge did not produce a value. *)
let read_hedged t ctx ~slot ~i ~node =
  let s = t.session in
  (* Both thunks race on [winner] when pfor runs them on different
     domains, so the cell is claimed with a CAS — exactly one value
     wins, and Hedge_won is emitted only by the claiming hedge.
     [stuck] is written by the primary thunk alone and read after the
     pfor barrier. *)
  let winner = Atomic.make None in
  let stuck = ref None in
  Session.emit s ctx (Trace.Hedge_launched { node });
  let delay = Health.hedge_delay (Session.health s) ~node in
  Session.pfor s
    [
      (fun () ->
        match
          read_primary t ctx ~slot ~i
            ~stop:(fun () -> Atomic.get winner <> None)
        with
        | Some v -> ignore (Atomic.compare_and_set winner None (Some v))
        | None -> ()
        | exception Session.Stuck m -> stuck := Some m);
      (fun () ->
        Session.sleep s delay;
        if Atomic.get winner = None then
          match degraded_with_ctx t ctx ~slot ~i with
          | Some v when Atomic.compare_and_set winner None (Some v) ->
            Session.emit s ctx (Trace.Hedge_won { node })
          | _ -> ());
    ];
  match (Atomic.get winner, !stuck) with
  | Some v, _ -> v
  | None, Some m -> raise (Session.Stuck m)
  | None, None -> (
    match read_primary t ctx ~slot ~i ~stop:(fun () -> false) with
    | Some v -> v
    | None -> assert false)

(* READ, dispatched on the data node's health: Healthy goes straight to
   the Fig 4 path; Suspect (or on-probation) arms a hedge; Down skips
   the doomed round trip and tries the degraded decode first (the
   breaker would fast-fail the primary anyway), falling back to the
   waiting loop if fewer than [k] survivors are consistent. *)
let read t ~slot ~i =
  let s = t.session in
  let cfg = Session.cfg s in
  if i < 0 || i >= cfg.Config.k then invalid_arg "Client.read: bad data index";
  let ctx = Session.new_ctx s Trace.Op_read ~slot in
  Session.with_op s ctx (fun () ->
      let full () =
        match read_primary t ctx ~slot ~i ~stop:(fun () -> false) with
        | Some v -> v
        | None -> assert false
      in
      let node = Session.node_of s ~slot ~pos:i in
      match Health.state (Session.health s) ~node with
      | Health.Down -> (
        match degraded_with_ctx t ctx ~slot ~i with
        | Some v -> v
        | None -> full ())
      | Health.Suspect | Health.Probation ->
        if cfg.Config.health.Config.hedge then read_hedged t ctx ~slot ~i ~node
        else full ()
      | Health.Healthy -> full ())

let read_degraded t ~slot ~i =
  let s = t.session in
  let cfg = Session.cfg s in
  if i < 0 || i >= cfg.Config.k then
    invalid_arg "Client.read_degraded: bad data index";
  let ctx = Session.new_ctx s Trace.Op_degraded_read ~slot in
  Session.with_op s ctx (fun () -> degraded_with_ctx t ctx ~slot ~i)

(* ------------------------------------------------------------------ *)
(* End-to-end integrity: verified reads and stripe integrity checks.

   The node-side self-check (Storage_node) is the first line of defense
   against bit rot; everything below is the client-side second line:
   verify digests end-to-end on the fast path, and catch the one fault
   the node cannot see in its own mirror — a rollback to an internally
   consistent older state — by comparing decodes across different
   k-subsets of the stripe. *)

let digest_cost s =
  let cfg = Session.cfg s in
  Session.block_cost s cfg.Config.integrity.Config.digest_per_byte

let fault_of_status = function
  | Checksum.Stale_epoch -> `Stale
  | Checksum.Digest_mismatch | Checksum.Bad_seal | Checksum.Valid -> `Checksum

(* All k-element subsets of [l], in deterministic order. *)
let rec k_subsets k l =
  if k = 0 then [ [] ]
  else
    match l with
    | [] -> []
    | x :: rest ->
      List.map (fun s -> x :: s) (k_subsets (k - 1) rest) @ k_subsets k rest

(* Identify members holding bad-but-plausible state: decode every
   k-subset of [avail], re-encode the full stripe, and count how many
   available members agree with the result.  Any subset of k honest
   members reproduces the true stripe (agreement m - f for f bad members
   among m); a subset containing a bad member interpolates a stripe that
   only its own k members are guaranteed to lie on.  A strict majority
   winner therefore exists whenever f < m - k, and the members
   disagreeing with it are the culprits.  Returns [None] when no strict
   winner exists (too many bad members to identify). *)
let identify_culprits t avail =
  let s = t.session in
  let cfg = Session.cfg s in
  let k = cfg.Config.k in
  let costs = cfg.Config.costs in
  let scored =
    List.map
      (fun subset ->
        Session.compute s
          (float_of_int k *. Session.block_cost s costs.Config.decode_per_byte
          +. float_of_int (cfg.Config.n - k)
             *. Session.block_cost s costs.Config.encode_per_byte);
        let stripe = Rs_code.reconstruct_stripe t.code subset in
        let agree =
          List.length
            (List.filter (fun (pos, b) -> Bytes.equal b stripe.(pos)) avail)
        in
        (agree, stripe))
      (k_subsets k avail)
  in
  let max_agree = List.fold_left (fun m (a, _) -> max m a) 0 scored in
  match List.filter (fun (a, _) -> a = max_agree) scored with
  | [] -> None
  | (_, stripe) :: rest ->
    if
      List.exists
        (fun (_, st) -> not (Array.for_all2 Bytes.equal st stripe))
        rest
    then None (* distinct maximal stripes: cannot identify *)
    else
      let bad =
        List.filter_map
          (fun (pos, b) ->
            if Bytes.equal b stripe.(pos) then None else Some pos)
          avail
      in
      if bad <> [] && max_agree <= k then None
        (* only self-agreement: disagreement is detectable but the
           culprit is not attributable *)
      else Some (stripe, bad)

(* Quarantine an identified culprit so recovery rebuilds it; best
   effort — an unreachable node is already out of the stripe. *)
let mark_init_pos t ctx ~slot ~pos =
  ignore (Session.call t.session ctx ~slot ~pos Proto.Mark_init)

(* Verified degraded decode.  Same soundness rule as
   [degraded_with_ctx] (a reachable NORM data node's block {e is} the
   register; note its [Get_state] answer already passed the node
   self-check), but when more than [k] consistent members are available
   and [cross_check] is on, the decode is validated against the whole
   stripe: any member holding plausible-but-wrong state (a rolled-back
   block with its matching old record) disagrees with the strict-
   majority stripe, gets flagged and quarantined, and recovery is
   kicked.  Detections are reported through [caught]. *)
let degraded_verified t ctx ~slot ~i ~caught =
  let s = t.session in
  let cfg = Session.cfg s in
  let k = cfg.Config.k in
  let states = snapshot_states t ctx ~slot in
  match states.(i) with
  | Some { Proto.st_opmode = Proto.Norm; st_block = Some b; _ } -> Some b
  | Some { Proto.st_opmode = Proto.Recons; _ }
  | Some { Proto.st_opmode = Proto.Norm; st_block = None; _ } ->
    None
  | None | Some { Proto.st_opmode = Proto.Init; _ } ->
    let cset = Recovery.find_consistent ~k ~n:cfg.Config.n states in
    if List.length cset < k || List.mem i cset then None
    else
      let avail =
        List.filter_map
          (fun pos ->
            match states.(pos) with
            | Some { Proto.st_block = Some b; _ } -> Some (pos, b)
            | _ -> None)
          cset
      in
      if List.length avail < k then None
      else if List.length avail = k || not cfg.Config.integrity.Config.cross_check
      then begin
        Session.compute s
          (float_of_int k
          *. Session.block_cost s cfg.Config.costs.Config.decode_per_byte);
        Some (Rs_code.repair t.code avail ~wanted:[ i ]).(0)
      end
      else begin
        match identify_culprits t avail with
        | None -> None (* ambiguous: refuse to guess, let the caller wait *)
        | Some (stripe, bad) ->
          List.iter
            (fun pos ->
              caught := true;
              Session.emit s ctx
                (Trace.Integrity_detected { pos; fault = `Stale });
              mark_init_pos t ctx ~slot ~pos)
            bad;
          if bad <> [] then Recovery.start t.recovery ~parent:ctx ~slot;
          Some stripe.(i)
      end

(* Verified read: [Read_checked] ships block + sealed record + epoch in
   one atomic response and the client re-verifies the digest itself —
   the node deliberately does {e not} self-check this request, so the
   check is end-to-end (a lying or bit-flipping node is caught at the
   reader).  On a failed check: flag, quarantine nothing (the record
   may be the stale half), kick recovery, retry; the node-side
   self-check makes the retried [Read_checked] serve repaired bytes.
   Unreachable data nodes fall back to the verified degraded decode. *)
let read_verified t ~slot ~i =
  let s = t.session in
  let cfg = Session.cfg s in
  if i < 0 || i >= cfg.Config.k then
    invalid_arg "Client.read_verified: bad data index";
  let ctx = Session.new_ctx s Trace.Op_verified_read ~slot in
  Session.with_op s ctx (fun () ->
      let caught = ref false in
      let flag st =
        caught := true;
        Session.emit s ctx
          (Trace.Integrity_detected { pos = i; fault = fault_of_status st });
        Recovery.start t.recovery ~parent:ctx ~slot
      in
      let rec loop attempts =
        if attempts > cfg.Config.recovery_retry_limit then
          raise
            (Session.Stuck
               (Printf.sprintf "verified read slot %d block %d" slot i))
        else
          match Session.call s ctx ~slot ~pos:i Proto.Read_checked with
          | Ok (Proto.R_read_checked { block = Some v; meta = Some m; epoch; _ })
            -> (
            Session.compute s (digest_cost s);
            match Checksum.verify m ~epoch v with
            | Checksum.Valid -> v
            | st ->
              flag st;
              loop (attempts + 1))
          | Ok (Proto.R_read_checked { block = Some _; meta = None; _ }) ->
            (* A block without its record is as good as corrupt. *)
            flag Checksum.Bad_seal;
            loop (attempts + 1)
          | Ok (Proto.R_read_checked { block = None; lmode; _ }) ->
            if lmode = Proto.Unl || lmode = Proto.Exp then begin
              Recovery.start t.recovery ~parent:ctx ~slot;
              loop (attempts + 1)
            end
            else begin
              Session.sleep s cfg.Config.retry_delay;
              loop attempts
            end
          | Ok _ -> raise (Session.Stuck "verified read: unexpected response")
          | Error _ -> (
            match degraded_verified t ctx ~slot ~i ~caught with
            | Some v -> v
            | None ->
              Session.sleep s cfg.Config.retry_delay;
              loop (attempts + 1))
      in
      let v = loop 0 in
      Session.emit s ctx (Trace.Verified_read { ok = not !caught });
      v)

(* ------------------------------------------------------------------ *)
(* Stripe integrity check — the scrubber's per-slot workhorse. *)

type integrity_report = {
  ir_live : int;  (** members answering with committed (non-INIT) state *)
  ir_checksum : int list;
      (** positions whose own self-check failed (bit rot, cross-epoch
          rollback) — detected by the metadata-only probe *)
  ir_stale : int list;
      (** positions the cross-member decode check identified as holding
          plausible-but-wrong state (same-record rollback) *)
  ir_consistent : bool;
      (** every reachable committed member lies on one code stripe *)
}

let check_integrity t ~slot =
  let s = t.session in
  let cfg = Session.cfg s in
  let n = cfg.Config.n and k = cfg.Config.k in
  let ctx = Session.new_ctx s Trace.Op_scrub ~slot in
  Session.with_op s ctx (fun () ->
      (* Pass 1: separate-metadata probe.  Each node re-digests its own
         block and returns only the verdict — no block on the wire. *)
      let verdicts = Array.make n None in
      Session.pfor s
        (List.init n (fun pos () ->
             match Session.call s ctx ~slot ~pos Proto.Get_meta with
             | Ok (Proto.R_meta { self; _ }) -> verdicts.(pos) <- self
             | Ok _ | Error _ -> ()));
      let checksum_bad =
        List.filter_map
          (fun pos ->
            match verdicts.(pos) with
            | Some st when st <> Checksum.Valid ->
              Session.emit s ctx
                (Trace.Integrity_detected { pos; fault = fault_of_status st });
              Some pos
            | _ -> None)
          (List.init n Fun.id)
      in
      (* Pass 2: cross-member consistency.  Catches the fault pass 1
         cannot: a member rolled back together with its matching record
         is internally Valid but off-stripe. *)
      let states = snapshot_states t ctx ~slot in
      let live =
        Array.fold_left
          (fun acc st ->
            match st with
            | Some v when v.Proto.st_opmode <> Proto.Init -> acc + 1
            | _ -> acc)
          0 states
      in
      let cset = Recovery.find_consistent ~k ~n states in
      let avail =
        List.filter_map
          (fun pos ->
            match states.(pos) with
            | Some { Proto.st_block = Some b; _ } -> Some (pos, b)
            | _ -> None)
          cset
      in
      let report ~stale ~consistent =
        {
          ir_live = live;
          ir_checksum = checksum_bad;
          ir_stale = stale;
          ir_consistent = consistent;
        }
      in
      if List.length avail < k then report ~stale:[] ~consistent:false
      else if List.length avail = k then
        (* Nothing to cross-check against: k members define exactly one
           stripe.  Consistent by construction, but with no slack the
           check has no power — the caller should recover first. *)
        report ~stale:[] ~consistent:true
      else begin
        (* Cheap fast path when every member answered: one re-encode. *)
        let full =
          if List.length avail = n then
            let blocks = Array.make n Bytes.empty in
            List.iter (fun (pos, b) -> blocks.(pos) <- b) avail;
            Session.compute s
              (Session.block_cost s cfg.Config.costs.Config.encode_per_byte
              *. float_of_int k);
            Rs_code.verify_stripe t.code blocks
          else false
        in
        if full then report ~stale:[] ~consistent:true
        else
          match identify_culprits t avail with
          | None -> report ~stale:[] ~consistent:false
          | Some (_, bad) ->
            List.iter
              (fun pos ->
                Session.emit s ctx
                  (Trace.Integrity_detected { pos; fault = `Stale });
                mark_init_pos t ctx ~slot ~pos)
              bad;
            report ~stale:bad ~consistent:(bad = [])
      end)
