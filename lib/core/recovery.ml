module Tid_set = Set.Make (struct
  type t = Proto.tid

  let compare = Proto.tid_compare
end)

(* Repair-source planner hook (degraded-aware scheduling): [rank] orders
   candidate source members — lower is better; draining, busy, or
   suspect nodes get large ranks — and [note] reports each member a
   repair actually read from, so the planner can spread consecutive
   rebuilds across distinct sources. *)
type planner = {
  rank : slot:int -> pos:int -> int;
  note : slot:int -> pos:int -> unit;
}

type t = {
  session : Session.t;
  code : Rs_code.t;
  planner : planner option;
  recovering : (int, unit) Hashtbl.t; (* slots with local recovery running *)
  mutable runs : int;
  mutable delta_runs : int;
}

let create ?planner ~code session =
  {
    session;
    code;
    planner;
    recovering = Hashtbl.create 8;
    runs = 0;
    delta_runs = 0;
  }

let runs t = t.runs
let delta_runs t = t.delta_runs

let source_rank t ~slot ~pos =
  match t.planner with None -> 0 | Some p -> p.rank ~slot ~pos

let note_source t ~slot ~pos =
  match t.planner with None -> () | Some p -> p.note ~slot ~pos

(* ------------------------------------------------------------------ *)
(* find_consistent (Fig 6): maximal set S of non-INIT positions whose
   recentlists (minus globally garbage-collected tids) agree with each
   other under the paper's conditions (1)-(3).

   Structure used to stay polynomial: redundant members of S must share
   one recentlist signature, so the maximal S is the best of
   - the all-data candidate (conditions (2),(3) vacuous), and
   - one candidate per distinct redundant signature sigma: the
     redundants carrying sigma plus every data position j whose own
     signature equals sigma's tids originated at j (H-hat test).

   G-hat is taken as the union of oldlists over all polled nodes rather
   than over S; by the two-phase GC invariant a tid reaches any oldlist
   only after its write completed at all nodes, so the widened union is
   sound (see DESIGN.md). *)
let find_consistent ~k ~n (states : Proto.state_view option array) =
  let g_hat =
    Array.fold_left
      (fun acc st ->
        match st with
        | Some v -> Tid_set.union acc (Tid_set.of_list v.Proto.st_oldlist)
        | None -> acc)
      Tid_set.empty states
  in
  let f_hat = Array.make n Tid_set.empty in
  let norm = Array.make n false in
  Array.iteri
    (fun pos st ->
      match st with
      | Some v when v.Proto.st_opmode = Proto.Norm ->
        norm.(pos) <- true;
        f_hat.(pos) <- Tid_set.diff (Tid_set.of_list v.Proto.st_recentlist) g_hat
      | _ -> ())
    states;
  let data_norm = List.filter (fun j -> norm.(j)) (List.init k Fun.id) in
  let red_norm =
    List.filter (fun r -> norm.(r)) (List.init (n - k) (fun i -> k + i))
  in
  let candidate_for sigma =
    let reds = List.filter (fun r -> Tid_set.equal f_hat.(r) sigma) red_norm in
    let datas =
      List.filter
        (fun j ->
          let h_hat = Tid_set.filter (fun x -> x.Proto.blk = j) sigma in
          Tid_set.equal h_hat f_hat.(j))
        data_norm
    in
    datas @ reds
  in
  let signatures =
    List.fold_left
      (fun acc r ->
        if List.exists (Tid_set.equal f_hat.(r)) acc then acc
        else f_hat.(r) :: acc)
      [] red_norm
  in
  let candidates = data_norm :: List.map candidate_for signatures in
  List.fold_left
    (fun best c -> if List.length c > List.length best then c else best)
    [] candidates

let poll_state session ctx ~slot ~pos =
  match Session.call session ctx ~slot ~pos Proto.Get_state with
  | Ok (Proto.R_state v) -> Some v
  | Ok _ -> None
  | Error _ -> None

(* A NORM member whose epoch trails the newest polled NORM epoch missed
   a finalize while unreachable (a revived node).  Its lists are empty
   or vacuous relative to the current epoch, so find_consistent could
   otherwise adopt it into an empty-signature cut over a stale base.
   Treat it exactly like an INIT member: excluded from cuts, rebuilt by
   recovery.  RECONS members are left alone — mixed epochs there mean a
   crashed recoverer, which the adopt path resolves. *)
let mask_epoch_stale (states : Proto.state_view option array) =
  let e_max =
    Array.fold_left
      (fun acc st ->
        match st with
        | Some v when v.Proto.st_opmode = Proto.Norm -> max acc v.Proto.st_epoch
        | _ -> acc)
      0 states
  in
  Array.iteri
    (fun pos st ->
      match st with
      | Some v when v.Proto.st_opmode = Proto.Norm && v.Proto.st_epoch < e_max
        ->
        states.(pos) <-
          Some
            {
              v with
              Proto.st_opmode = Proto.Init;
              st_recons_set = None;
              st_oldlist = [];
              st_recentlist = [];
              st_block = None;
            }
      | _ -> ())
    states

(* ------------------------------------------------------------------ *)
(* Delta repair: catch epoch-stale members up from a peer's add log.

   When a node misses a window of activity but comes back with its
   sealed state intact, the only thing separating it from the current
   epoch is the set of adds folded into the base by the finalizes it
   missed.  An up-to-date redundant member whose delta log is complete
   back to the stale epoch can name that set exactly: the logged adds
   whose tids have LEFT its protocol lists (still-listed writes are in
   flight, not yet part of any base).  Shipping just those — rescaled
   for the target's coefficient, filtered against what the target
   already applied — replaces a k-block reconstruction with a transfer
   proportional to the missed writes.

   Eligibility is checked pessimistically and any doubt falls back to
   full Fig 6 reconstruction: all members must answer the probe, all
   must be NORM and digest-valid, every stale member must be free of
   tombstone overflow and must pass the orphan check (an in-flight
   write it holds that the source cannot account for means a rollback
   happened — only a rebuild fixes that), and the source's log must be
   provably complete back to the oldest stale epoch.  The whole
   exchange is lock-free: Apply_delta re-checks epoch, lock mode, and
   per-tid duplicates node-side, so a racing write or recovery can only
   turn the attempt into a no-op, never corrupt state. *)

let try_delta t ctx ~slot =
  let s = t.session in
  let cfg = Session.cfg s in
  let n = cfg.Config.n and k = cfg.Config.k in
  let bytes_read = ref 0 in
  let bytes_shipped = ref 0 in
  let probes = Array.make n None in
  (* Probe thunks interleave at their calls: each writes only its own
     array slots; the shared counter is summed after the barrier. *)
  let probe_bytes = Array.make n 0 in
  Session.pfor s
    (List.init n (fun pos () ->
         match Session.call s ctx ~slot ~pos Proto.Delta_probe with
         | Ok (Proto.R_delta_probe p as r) ->
           probe_bytes.(pos) <- Proto.response_bytes r;
           probes.(pos) <- Some p
         | Ok _ | Error _ -> ()));
  bytes_read := Array.fold_left ( + ) !bytes_read probe_bytes;
  let all_norm_valid =
    Array.for_all
      (function
        | Some p -> p.Proto.dp_opmode = Proto.Norm && p.Proto.dp_valid
        | None -> false)
      probes
  in
  if not all_norm_valid then None
  else begin
    let probe pos = Option.get probes.(pos) in
    let e_c =
      Array.fold_left
        (fun acc p ->
          match p with Some p -> max acc p.Proto.dp_epoch | None -> acc)
        0 probes
    in
    let stale =
      List.filter (fun pos -> (probe pos).Proto.dp_epoch < e_c) (List.init n Fun.id)
    in
    let repairable pos =
      let p = probe pos in
      not p.Proto.dp_tombs_overflow
    in
    if stale = [] || not (List.for_all repairable stale) then None
    else begin
      let e_min =
        List.fold_left (fun acc pos -> min acc (probe pos).Proto.dp_epoch) e_c stale
      in
      (* Candidate sources: up-to-date redundant members (only they see
         every add) whose log provably reaches back to the oldest stale
         epoch, ordered by the planner (drained / busy / suspect nodes
         last, spread across distinct members). *)
      let sources =
        List.init (n - k) (fun i -> k + i)
        |> List.filter (fun pos ->
               let p = probe pos in
               p.Proto.dp_epoch = e_c && p.Proto.dp_log_floor <= e_min)
        |> List.sort (fun a b ->
               compare
                 (source_rank t ~slot ~pos:a, a)
                 (source_rank t ~slot ~pos:b, b))
      in
      let pull pos =
        match
          Session.call s ctx ~slot ~pos (Proto.Get_delta { since_epoch = e_min })
        with
        | Ok (Proto.R_delta { entries; to_epoch; complete } as r)
          when complete && to_epoch = e_c ->
          bytes_read := !bytes_read + Proto.response_bytes r;
          Some (pos, entries)
        | Ok (Proto.R_delta _ as r) ->
          bytes_read := !bytes_read + Proto.response_bytes r;
          None
        | Ok _ | Error _ -> None
      in
      match List.find_map pull sources with
      | None -> None
      | Some (src, log) ->
        note_source t ~slot ~pos:src;
        let sp = probe src in
        let applied_s =
          Tid_set.union
            (Tid_set.of_list sp.Proto.dp_recent)
            (Tid_set.of_list sp.Proto.dp_old)
        in
        let tombs_s = Tid_set.of_list sp.Proto.dp_tombs in
        let log_tids =
          List.fold_left
            (fun acc (e : Proto.delta_entry) -> Tid_set.add e.Proto.d_tid acc)
            Tid_set.empty log
        in
        (* Included increments: logged adds whose writes have left the
           source's lists — completed or folded in by a finalize.  Adds
           still listed at the source are in flight and excluded; the
           stale member either has them too (kept in its lists) or the
           writer will retry them against the caught-up epoch. *)
        let inc =
          List.filter
            (fun (e : Proto.delta_entry) ->
              not (Tid_set.mem e.Proto.d_tid applied_s))
            log
        in
        let repair_one pos =
          let tp = probe pos in
          let applied_t =
            Tid_set.union
              (Tid_set.of_list tp.Proto.dp_recent)
              (Tid_set.of_list tp.Proto.dp_old)
          in
          let tombs_t = Tid_set.of_list tp.Proto.dp_tombs in
          (* Orphan check: every write the target still holds as
             in-flight must be accounted for at the source (listed,
             logged, or tombstoned there).  An unaccounted one was
             rolled back by a recovery the target missed — its effect
             must be scrubbed from the bytes, which only a rebuild
             does. *)
          let orphan =
            List.exists
              (fun tid ->
                not
                  (Tid_set.mem tid log_tids || Tid_set.mem tid applied_s
                  || Tid_set.mem tid tombs_s))
              tp.Proto.dp_recent
          in
          if orphan then false
          else begin
            let missed =
              List.filter
                (fun (e : Proto.delta_entry) ->
                  not
                    (Tid_set.mem e.Proto.d_tid applied_t
                    || Tid_set.mem e.Proto.d_tid tombs_t))
                inc
            in
            (* Data members never receive adds: a write to their block
               cannot complete without them, so their bytes are already
               the epoch-[e_c] value — the catch-up is pure epoch
               advance + reseal.  Redundant members get the missed
               payloads rebased onto their own coefficient. *)
            let ship =
              if pos < k then []
              else
                List.map
                  (fun (e : Proto.delta_entry) ->
                    let to_alpha =
                      Rs_code.alpha t.code ~j:pos ~i:e.Proto.d_dblk
                    in
                    if to_alpha = e.Proto.d_alpha then e
                    else begin
                      let dv = Bytes.create (Bytes.length e.Proto.d_dv) in
                      Rs_code.rescale_into t.code ~from_alpha:e.Proto.d_alpha
                        ~to_alpha ~dst:dv ~src:e.Proto.d_dv;
                      { e with Proto.d_alpha = to_alpha; d_dv = dv }
                    end)
                  missed
            in
            let absorbed =
              List.filter_map
                (fun (e : Proto.delta_entry) ->
                  if Tid_set.mem e.Proto.d_tid applied_t then
                    Some e.Proto.d_tid
                  else None)
                inc
            in
            let req =
              Proto.Apply_delta
                {
                  entries = ship;
                  absorbed;
                  from_epoch = tp.Proto.dp_epoch;
                  to_epoch = e_c;
                }
            in
            Session.compute s
              (float_of_int (List.length ship)
              *. Session.block_cost s cfg.Config.costs.Config.encode_per_byte);
            match Session.call s ctx ~slot ~pos req with
            | Ok (Proto.R_delta_applied { ok = true; _ }) ->
              bytes_shipped := !bytes_shipped + Proto.request_bytes req;
              true
            | Ok _ | Error _ -> false
          end
        in
        if List.for_all repair_one stale then
          Some (!bytes_read, !bytes_shipped)
        else None
    end
  end

(* ------------------------------------------------------------------ *)
(* Recovery proper (Fig 6). *)

type outcome = Recovered | Backed_off

(* Restore the lock modes recovery took: on back off, and before giving
   up with [Stuck] — a live client's abandoned locks would otherwise
   never expire, and readers wait on them forever. *)
let release_locks s ctx ~slot acquired =
  Session.pfor s
    (List.map
       (fun (pos, old) () ->
         ignore (Session.call s ctx ~slot ~pos (Proto.Setlock old)))
       acquired)

let recover_full t ctx ~slot =
  let s = t.session in
  let cfg = Session.cfg s in
  let n = cfg.Config.n and k = cfg.Config.k in
  let phase p = Session.emit s ctx (Trace.Recovery_phase p) in
  (* Phase 1: lock all blocks in position order; back off if anybody
     else holds a recovery lock. *)
  phase Trace.Ph_lock;
  let acquired = ref [] in
  let backed_off = ref false in
  let rec lock_from pos =
    if pos >= n || !backed_off then ()
    else begin
      (match Session.call s ctx ~slot ~pos (Proto.Trylock Proto.L1) with
      | Ok (Proto.R_trylock { ok = true; oldlmode }) ->
        acquired := (pos, oldlmode) :: !acquired
      | Ok (Proto.R_trylock { ok = false; _ }) -> backed_off := true
      | Ok _ -> ()
      | Error `Node_down ->
        (* A dead node can neither serve writes nor needs locking; skip
           it — it will show up as unavailable in phase 2. *)
        ()
      | Error `Timeout ->
        (* Retries exhausted on a live link: we cannot tell whether the
           lock was granted, so back off — trylock is idempotent for
           the same holder, and the next attempt resolves it. *)
        backed_off := true);
      if not !backed_off then lock_from (pos + 1)
    end
  in
  lock_from 0;
  if !backed_off then begin
    release_locks s ctx ~slot !acquired;
    Session.sleep s cfg.Config.retry_delay;
    phase Trace.Ph_backoff;
    Backed_off
  end
  else begin
    (* Phase 2: running solo now. *)
    phase Trace.Ph_collect;
    let bytes_read = ref 0 in
    let bytes_shipped = ref 0 in
    let poll pos =
      match Session.call s ctx ~slot ~pos Proto.Get_state with
      | Ok (Proto.R_state v as r) ->
        bytes_read := !bytes_read + Proto.response_bytes r;
        Some v
      | Ok _ | Error _ -> None
    in
    let states = Array.init n (fun pos -> poll pos) in
    mask_epoch_stale states;
    let init_count st =
      Array.fold_left
        (fun acc v ->
          match v with
          | Some v when v.Proto.st_opmode <> Proto.Init -> acc
          | _ -> acc + 1)
        0 st
    in
    let adopt =
      (* A previous recoverer crashed in phase 3: adopt its consistent
         set (Fig 6 lines 8-9). *)
      Array.to_list states
      |> List.find_map (fun st ->
             match st with
             | Some
                 { Proto.st_opmode = Proto.Recons; st_recons_set = Some set; _ }
               ->
               Some set
             | _ -> None)
    in
    let cset =
      match adopt with
      | Some set ->
        phase Trace.Ph_adopt;
        List.filter
          (fun pos ->
            match states.(pos) with
            | Some v -> v.Proto.st_opmode <> Proto.Init
            | None -> false)
          set
      | None ->
        (* Hopeless fast-path: fewer than [k] non-INIT nodes answered
           the poll at all.  Lock weakening only drains in-flight adds
           on nodes we can talk to — it cannot conjure blocks out of
           dead ones — so grinding through the full poll ladder here
           wastes ~[recovery_retry_limit * poll_delay] of simulated
           time per attempt, and callers that retry recovery (reads
           behind an expired lock, the monitor) multiply that into a
           livelock when a group is beyond its failure bound.  Restore
           the locks we took and give up at once; if the outage is
           transient the next attempt simply polls again. *)
        let live =
          Array.fold_left
            (fun acc st ->
              match st with
              | Some v when v.Proto.st_opmode <> Proto.Init -> acc + 1
              | _ -> acc)
            0 states
        in
        if live < k then begin
          release_locks s ctx ~slot !acquired;
          raise
            (Session.Stuck
               (Printf.sprintf
                  "recovery of slot %d: only %d of %d nodes answered, need %d"
                  slot live n k))
        end;
        (* Find a large-enough consistent set, weakening locks to let
           outstanding adds drain (Fig 6 lines 11-20). *)
        let cset = ref (find_consistent ~k ~n states) in
        let slack () = max 0 (cfg.Config.t_d - init_count states) in
        let enough () = List.length !cset >= k + slack () in
        let rounds = ref 0 in
        let settled = ref false in
        let reds = List.init (n - k) (fun i -> k + i) in
        while not (enough () || !settled) do
          incr rounds;
          if !rounds > cfg.Config.recovery_retry_limit then begin
            release_locks s ctx ~slot !acquired;
            raise
              (Session.Stuck
                 (Printf.sprintf
                    "recovery of slot %d cannot gather %d consistent blocks"
                    slot
                    (k + slack ())))
          end;
          (* Weaken locks on redundant nodes so outstanding adds can
             complete. *)
          phase Trace.Ph_weaken;
          Session.pfor s
            (List.map
               (fun pos () ->
                 ignore (Session.call s ctx ~slot ~pos (Proto.Setlock Proto.L0)))
               reds);
          let inner = ref 0 in
          while not (enough ()) && !inner <= cfg.Config.recovery_retry_limit do
            incr inner;
            Session.sleep s cfg.Config.recovery_poll_delay;
            List.iter (fun pos -> states.(pos) <- poll pos) reds;
            mask_epoch_stale states;
            cset := find_consistent ~k ~n states
          done;
          (* A whole poll window with weakened locks brought no add that
             grows the set: no writer is still completing into the
             stripe.  The writes left listed are partial writes of a
             crashed client — one with several writes in flight leaves
             more than the t_p that t_d assumes — so waiting cannot
             reach k + t_d.  Settle for k consistent blocks: they decode
             the stripe, rebuilding restores full redundancy, and a late
             add from a writer that was merely slow is fenced off by the
             epoch, like any partial write recovery leaves out. *)
          if !inner > cfg.Config.recovery_retry_limit then settled := true;
          (* Re-take full locks before new adds slip in; drop any block
             whose recentlist moved in the meantime. *)
          let changed = ref [] in
          List.iter
            (fun pos ->
              match Session.call s ctx ~slot ~pos (Proto.Getrecent Proto.L1) with
              | Ok (Proto.R_recent current) ->
                let seen =
                  match states.(pos) with
                  | Some v -> v.Proto.st_recentlist
                  | None -> []
                in
                if
                  not
                    (Tid_set.equal (Tid_set.of_list current)
                       (Tid_set.of_list seen))
                then changed := pos :: !changed
              | Ok _ -> ()
              | Error _ -> changed := pos :: !changed)
            reds;
          cset := List.filter (fun posn -> not (List.mem posn !changed)) !cset
        done;
        if List.length !cset < k then begin
          release_locks s ctx ~slot !acquired;
          raise
            (Session.Stuck (Printf.sprintf "recovery of slot %d stalled" slot))
        end;
        !cset
    in
    if List.length cset < k then
      raise
        (Session.Data_loss
           (Printf.sprintf "slot %d: only %d consistent blocks, need %d" slot
              (List.length cset) k));
    (* Phase 3: decode, rewrite every block, bump the epoch, unlock.
       The planner orders the available blocks so the k that actually
       feed the decode come from preferred (idle, non-draining) members,
       and consecutive rebuilds spread over distinct sources. *)
    let avail =
      List.filter_map
        (fun pos ->
          match states.(pos) with
          | Some { Proto.st_block = Some b; _ } -> Some (pos, b)
          | _ -> None)
        cset
      |> List.sort (fun (a, _) (b, _) ->
             compare
               (source_rank t ~slot ~pos:a, a)
               (source_rank t ~slot ~pos:b, b))
    in
    if List.length avail < k then
      raise
        (Session.Data_loss
           (Printf.sprintf "slot %d: consistent blocks lost mid-recovery" slot));
    List.iteri (fun i (pos, _) -> if i < k then note_source t ~slot ~pos) avail;
    phase Trace.Ph_decode;
    Session.compute s
      (float_of_int k
      *. (Session.block_cost s cfg.Config.costs.Config.decode_per_byte
         +. Session.block_cost s cfg.Config.costs.Config.encode_per_byte));
    (* Each source ships its own bytes; every other position — the lost
       member and any consistent member the decode did not read — is
       recomputed from the sources.  A consistent non-source can hold
       bytes off the codeword (a same-record rollback), and rewriting
       it from the sources is what corrects it.  Nodes copy a
       [Reconstruct] block on receipt, so the source buffers are
       shipped as they are. *)
    let all_positions = List.init n Fun.id in
    let sources = List.filteri (fun i _ -> i < k) avail in
    let wanted =
      List.filter (fun pos -> not (List.mem_assoc pos sources)) all_positions
    in
    let stripe = Array.make n Bytes.empty in
    List.iter (fun (pos, b) -> stripe.(pos) <- b) sources;
    let rebuilt = Rs_code.repair t.code sources ~wanted in
    List.iteri (fun i pos -> stripe.(pos) <- rebuilt.(i)) wanted;
    let epochs = Array.make n 0 in
    (* Rewrite thunks interleave at their calls: per-position array
       slots only; the shared counter is summed after the barrier. *)
    let ship_bytes = Array.make n 0 in
    Session.pfor s
      (List.map
         (fun pos () ->
           let req = Proto.Reconstruct { cset; blk = stripe.(pos) } in
           match Session.call s ctx ~slot ~pos req with
           | Ok (Proto.R_reconstruct { epoch }) ->
             ship_bytes.(pos) <- Proto.request_bytes req;
             epochs.(pos) <- epoch
           | Ok _ | Error _ -> ())
         all_positions);
    bytes_shipped := Array.fold_left ( + ) !bytes_shipped ship_bytes;
    phase Trace.Ph_finalize;
    let new_epoch = Array.fold_left max 0 epochs + 1 in
    Session.pfor s
      (List.map
         (fun pos () ->
           ignore
             (Session.call s ctx ~slot ~pos (Proto.Finalize { epoch = new_epoch })))
         all_positions);
    t.runs <- t.runs + 1;
    Session.emit s ctx
      (Trace.Repair_result
         {
           delta = false;
           bytes_read = !bytes_read;
           bytes_shipped = !bytes_shipped;
         });
    phase Trace.Ph_done;
    Recovered
  end

let recover_with_ctx ?(delta = true) t ctx ~slot =
  let s = t.session in
  let cfg = Session.cfg s in
  if not (delta && cfg.Config.repair.Config.delta_repair) then
    recover_full t ctx ~slot
  else begin
    (* Lock-free fast path: if the only thing wrong with the stripe is
       epoch-stale (but digest-valid) members, catch them up from a
       peer's add log instead of reconstructing from k blocks.  Any
       doubt — unreachable member, invalid digest, incomplete log,
       unaccounted in-flight write — falls through to full Fig 6. *)
    Session.emit s ctx (Trace.Recovery_phase Trace.Ph_delta);
    match try_delta t ctx ~slot with
    | Some (bytes_read, bytes_shipped) ->
      t.runs <- t.runs + 1;
      t.delta_runs <- t.delta_runs + 1;
      Session.emit s ctx
        (Trace.Repair_result { delta = true; bytes_read; bytes_shipped });
      Session.emit s ctx (Trace.Recovery_phase Trace.Ph_done);
      Recovered
    | None -> recover_full t ctx ~slot
  end

let recover ?parent ?delta t ~slot =
  let ctx = Session.new_ctx t.session ?parent Trace.Op_recovery ~slot in
  Session.with_op t.session ctx (fun () -> recover_with_ctx ?delta t ctx ~slot)

(* start (Fig 6 start_recovery): fork-if-not-running-locally.  In our
   cooperative setting the caller runs recovery inline; concurrent
   operations of the same client wait for it instead of starting a
   duplicate. *)
let start ?parent ?delta t ~slot =
  if Hashtbl.mem t.recovering slot then
    (* The running recovery fiber removes the entry in a [finally], and
       its own retry loops are bounded, so this wait always terminates —
       no poll budget.  Under message faults a recovery can legitimately
       take many timeout-plus-backoff cycles. *)
    while Hashtbl.mem t.recovering slot do
      Session.sleep t.session (Session.cfg t.session).Config.retry_delay
    done
  else begin
    Hashtbl.add t.recovering slot ();
    Fun.protect
      ~finally:(fun () -> Hashtbl.remove t.recovering slot)
      (fun () -> ignore (recover ?parent ?delta t ~slot))
  end
