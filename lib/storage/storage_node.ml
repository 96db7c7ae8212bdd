open Proto

(* recentlist/oldlist entries carry the node-local arrival time: swap uses
   the largest time to find the previous write's tid, and the monitor uses
   ages to detect stuck writes.  Lists are kept newest-first.

   Swap entries at the data node additionally remember the pre-swap block
   and the otid of the original response, so a retried swap (lost reply)
   can be answered without re-applying — this is what makes swap
   resendable under message loss.  The memory is reclaimed when the
   completed write moves to the oldlist. *)
type entry = {
  e_tid : tid;
  e_time : float;
  e_swap : (bytes * tid option) option;
}

type slot = {
  mutable block : bytes;
  mutable opmode : opmode;
  mutable lmode : lmode;
  mutable lid : int option; (* client holding the lock, if any *)
  mutable l_prev : lmode; (* mode before the current holder acquired *)
  mutable epoch : int;
  mutable recentlist : entry list;
  mutable oldlist : entry list;
  mutable recons_set : int list option;
  (* Separate integrity metadata: sealed digest of the current block,
     re-made on every mutation (swap/add/reconstruct) and re-sealed on
     finalize.  Kept apart from the block so checking is cheap and an
     at-rest flip of the block cannot also "fix" its record. *)
  mutable meta : Checksum.record;
  (* Delta-repair log: recently applied adds, newest first, each with
     the coefficient already folded into its payload, so a repairer can
     catch a briefly-absent peer up by shipping it only the adds it
     missed instead of reconstructing from k blocks.  [dlog_floor] is
     the completeness frontier: the log holds EVERY add this slot
     applied under epochs >= dlog_floor (capping the log or skipping an
     entry raises the floor past the affected epoch).  [dlog_reset]
     marks that a reconstruct replaced the block bytes, so the log no
     longer describes increments over any sealed base; the next
     finalize re-anchors the floor at the new epoch. *)
  mutable dlog : delta_entry list;
  mutable dlog_bytes : int;
  mutable dlog_floor : int;
  mutable dlog_reset : bool;
  (* Tombstones: tids gc_old dropped from the lists since the last seal.
     Their effects are folded into the block but no longer visible in
     any list, so a delta repairer needs them for duplicate suppression
     on both sides.  Cleared at finalize (the new base absorbs them);
     past [tombs_cap] the slot merely stops being delta-repairable
     until the next seal.  Each is a packed tid ([pack_tid]): one is
     kept per collected write per member until the next seal, so its
     size is most of what a write leaves behind.  [n_tombs] is
     [List.length tombs]. *)
  mutable tombs : int list;
  mutable n_tombs : int;
  mutable tombs_overflow : bool;
}

type t = {
  slots : (int, slot) Hashtbl.t;
  now : unit -> float;
  client_failed : int -> bool;
  alpha_for : (slot:int -> dblk:int -> int) option;
  block_size : int;
  init : [ `Zeroed | `Garbage ];
  kernel : (module Kernel.S); (* bulk kernel for the configured field *)
  mutable garbage_seed : int;
  self_check : bool; (* verify own digest before serving reads/state *)
  on_integrity_fail : (slot:int -> Checksum.status -> unit) option;
      (* fault-layer observer: fired whenever a self-check fails while
         serving, so detection times can be recorded at the injection
         site (the node reporting a checksum error, ZFS-style) *)
  delta_log_cap : int; (* per-slot byte budget for the delta log; 0 disables *)
  tombs_cap : int; (* per-slot tombstone budget *)
}

let create ?alpha_for ?(client_failed = fun _ -> false) ?(h = 8)
    ?(self_check = true) ?on_integrity_fail ?(delta_log_cap = 64 * 1024)
    ?(tombs_cap = 512) ~now ~block_size ~init () =
  {
    slots = Hashtbl.create 64;
    now;
    client_failed;
    alpha_for;
    block_size;
    init;
    kernel = Kernel.for_h h;
    garbage_seed = 0x5eed;
    self_check;
    on_integrity_fail;
    delta_log_cap;
    tombs_cap;
  }

(* Deterministic "random" garbage for INIT slots: the paper's remapped
   node holds arbitrary bits; determinism keeps test runs reproducible. *)
let garbage_block t =
  t.garbage_seed <- (t.garbage_seed * 1103515245) + 12345;
  let st = Random.State.make [| t.garbage_seed |] in
  Bytes.init t.block_size (fun _ -> Char.chr (Random.State.int st 256))

let writer_of_tid tid =
  Checksum.pack_writer ~seq:tid.seq ~blk:tid.blk ~client:tid.client

let fresh_slot t =
  let block, opmode =
    match t.init with
    | `Zeroed -> (Bytes.make t.block_size '\000', Norm)
    | `Garbage -> (garbage_block t, Init)
  in
  {
    block;
    opmode;
    lmode = Unl;
    lid = None;
    l_prev = Unl;
    epoch = 0;
    recentlist = [];
    oldlist = [];
    recons_set = None;
    meta = Checksum.make ~epoch:0 ~writer:0L block;
    dlog = [];
    dlog_bytes = 0;
    dlog_floor = 0;
    dlog_reset = false;
    tombs = [];
    n_tombs = 0;
    tombs_overflow = false;
  }

let slot t id =
  match Hashtbl.find_opt t.slots id with
  | Some s -> s
  | None ->
    let s = fresh_slot t in
    Hashtbl.add t.slots id s;
    s

let tids entries = List.map (fun e -> e.e_tid) entries

(* A tid as one immediate int: 32 bits of seq, 16 of blk, 14 of client.
   [None] for a tid outside those ranges, which a tombstone cannot
   hold. *)
let pack_tid { seq; blk; client } =
  if seq >= 0 && seq < 1 lsl 32 && blk >= 0 && blk < 1 lsl 16 && client >= 0
     && client < 1 lsl 14
  then Some ((seq lsl 30) lor (blk lsl 14) lor client)
  else None

let unpack_tid p =
  { seq = p lsr 30; blk = (p lsr 14) land 0xffff; client = p land 0x3fff }

let mem_tid tid entries = List.exists (fun e -> tid_compare e.e_tid tid = 0) entries

let mem_plain_tid tid l = List.exists (fun x -> tid_compare x tid = 0) l

(* Split off the last (oldest — lists are newest-first) element. *)
let rec split_last = function
  | [] -> invalid_arg "Storage_node.split_last: empty"
  | [ e ] -> ([], e)
  | x :: rest ->
    let l, e = split_last rest in
    (x :: l, e)

(* Record an applied add in the slot's delta log.  [d_alpha] names the
   coefficient already folded into the logged payload: for unicast adds
   the client pre-scaled [dv] by this node's own coefficient (recovered
   from the placement oracle); broadcast adds are logged as the raw
   diff, coefficient 1, before node-side scaling.  The payload is
   copied — the client's dispatch buffers are pooled and recycled.  Any
   add the log cannot faithfully retain (no oracle, byte budget) raises
   the completeness floor past the current epoch instead. *)
let log_add t ~id s ~dv ~alpha ~ntid =
  if t.delta_log_cap <= 0 then s.dlog_floor <- max s.dlog_floor (s.epoch + 1)
  else begin
    let folded =
      if alpha <> 1 then Some 1
      else
        match t.alpha_for with
        | Some f -> Some (f ~slot:id ~dblk:ntid.blk)
        | None -> None
    in
    match folded with
    | None -> s.dlog_floor <- max s.dlog_floor (s.epoch + 1)
    | Some d_alpha ->
      let e =
        {
          d_tid = ntid;
          d_dblk = ntid.blk;
          d_epoch = s.epoch;
          d_alpha;
          d_dv = Bytes.copy dv;
        }
      in
      s.dlog <- e :: s.dlog;
      s.dlog_bytes <- s.dlog_bytes + delta_entry_bytes e;
      while s.dlog_bytes > t.delta_log_cap && s.dlog <> [] do
        let kept, oldest = split_last s.dlog in
        s.dlog <- kept;
        s.dlog_bytes <- s.dlog_bytes - delta_entry_bytes oldest;
        s.dlog_floor <- max s.dlog_floor (oldest.d_epoch + 1)
      done
  end

(* "upon failure of lid when lmode in {L0, L1} do lmode <- EXP" (Fig 6). *)
let expire_if_holder_failed t s =
  match (s.lmode, s.lid) with
  | (L0 | L1), Some holder when t.client_failed holder ->
    s.lmode <- Exp;
    s.lid <- None
  | _ -> ()

(* Node-side integrity self-check (first line of defense, ZFS-style):
   before serving a block the node re-digests it against its sealed
   record.  A failing slot answers as if it held nothing — reads return
   no block and get_state reports INIT — so the existing recovery and
   degraded-decode machinery excludes the rotted member and rebuilds it
   through Fig 6, with no new protocol states. *)
let self_status s = Checksum.verify s.meta ~epoch:s.epoch s.block

let checked_status t ~id s =
  let st = self_status s in
  (match t.on_integrity_fail with
  | Some f when st <> Checksum.Valid -> f ~slot:id st
  | _ -> ());
  st

let self_ok t ~id s =
  (not t.self_check) || checked_status t ~id s = Checksum.Valid

(* Read and swap hand out (and take in) block references without
   copying.  This is safe because data-slot blocks are never mutated in
   place — a data slot only changes by pointer replacement (swap,
   reconstruct) and adds land exclusively on redundant positions — so a
   reader's view is immutable, and a swapped-in payload is owned by the
   node from then on (the simulator serves calls synchronously, and
   writers hand over freshly built blocks). *)
let do_read t ~id s =
  if s.opmode <> Norm || s.lmode <> Unl || not (self_ok t ~id s) then
    R_read { block = None; lmode = s.lmode }
  else R_read { block = Some s.block; lmode = s.lmode }

(* Verified-read serve: block, metadata record, and current epoch in one
   atomic response.  Deliberately NO node-side check here — this is the
   end-to-end path, the *client* verifies (a node that cannot be trusted
   to store bytes cannot be trusted to check them either). *)
let do_read_checked s =
  if s.opmode <> Norm || s.lmode <> Unl then
    R_read_checked { block = None; meta = None; epoch = s.epoch; lmode = s.lmode }
  else
    R_read_checked
      { block = Some s.block; meta = Some s.meta; epoch = s.epoch; lmode = s.lmode }

(* Scrub probe: only the self-check verdict crosses the wire, never the
   block — the separate-metadata payoff (Androulaki/Cachin).  The node
   still pays the digest over the block, which [serve_cost] prices. *)
let do_get_meta t ~id s =
  let self = if s.opmode = Init then None else Some (checked_status t ~id s) in
  R_meta { opmode = s.opmode; epoch = s.epoch; self }

(* Quarantine: the caller (verified read / scrub) identified this member
   as holding bad-but-plausible state.  Demote to INIT so recovery
   rebuilds it from the surviving members; protocol lists go with it,
   exactly as if the member had been fail-remapped. *)
let do_mark_init s =
  s.opmode <- Init;
  s.recons_set <- None;
  s.recentlist <- [];
  s.oldlist <- [];
  (* Quarantined state cannot vouch for anything it logged. *)
  s.dlog <- [];
  s.dlog_bytes <- 0;
  s.dlog_reset <- true;
  s.tombs <- [];
  s.n_tombs <- 0;
  s.tombs_overflow <- false;
  R_ack

let do_swap t s ~v ~ntid =
  if s.opmode <> Norm || s.lmode <> Unl then
    R_swap { block = None; epoch = s.epoch; otid = None; lmode = s.lmode }
  else
    match
      List.find_opt (fun e -> tid_compare e.e_tid ntid = 0) s.recentlist
    with
    | Some { e_swap = Some (old, otid); _ } ->
      (* Retry (or duplicate delivery) of an already-applied swap.
         Re-applying would clobber any successor write, so answer from
         the remembered pre-swap value instead; the current epoch is the
         conservative one for the adds that follow. *)
      R_swap { block = Some old; epoch = s.epoch; otid; lmode = s.lmode }
    | Some { e_swap = None; _ } ->
      R_swap { block = None; epoch = s.epoch; otid = None; lmode = s.lmode }
    | None ->
      if mem_tid ntid s.oldlist then
        (* Completed and garbage-collected: the saved value is gone. *)
        R_swap { block = None; epoch = s.epoch; otid = None; lmode = s.lmode }
      else begin
        let retblk = s.block in
        s.block <- v;
        s.meta <- Checksum.make ~epoch:s.epoch ~writer:(writer_of_tid ntid) v;
        (* Previous write = recentlist entry with the largest time; the
           list is newest-first so that is the head.  The saved pre-swap
           value and the returned block share [retblk]: neither side
           mutates it (see the aliasing note above do_read). *)
        let otid =
          match s.recentlist with [] -> None | e :: _ -> Some e.e_tid
        in
        s.recentlist <-
          { e_tid = ntid; e_time = t.now (); e_swap = Some (retblk, otid) }
          :: s.recentlist;
        R_swap { block = Some retblk; epoch = s.epoch; otid; lmode = s.lmode }
      end

(* [alpha] is the coefficient this node applies to the incoming delta:
   1 for a unicast add (the client already scaled it), the node's own
   erasure-code coefficient for a broadcast add.  Scaling happens
   directly into the slot block via the fused kernel — no intermediate
   scaled buffer is ever materialized. *)
let apply_add t ~id s ~dv ~alpha ~ntid ~otid ~epoch =
  if s.opmode <> Norm || not (s.lmode = Unl || s.lmode = L0) || epoch < s.epoch
  then R_add { status = Add_fail; opmode = s.opmode; lmode = s.lmode }
  else if mem_tid ntid s.recentlist || mem_tid ntid s.oldlist then
    (* Fig 7: the recentlist doubles as a duplicate filter.  A re-applied
       add (duplicate delivery, or a client retry after a lost reply)
       must not be XORed in twice; it already took effect, so ack it. *)
    R_add { status = Add_ok; opmode = s.opmode; lmode = s.lmode }
  else
    let order_ok =
      match otid with
      | None -> true
      | Some o -> mem_tid o s.recentlist || mem_tid o s.oldlist
    in
    if not order_ok then
      R_add { status = Add_order; opmode = s.opmode; lmode = s.lmode }
    else begin
      let (module K : Kernel.S) = t.kernel in
      if alpha = 1 then K.xor_into ~dst:s.block ~src:dv
      else K.scale_xor_into alpha ~dst:s.block ~src:dv;
      log_add t ~id s ~dv ~alpha ~ntid;
      (* Checksum the post-add state: the digest covers block bytes
         only, so any order of the same adds seals the same digest. *)
      s.meta <- Checksum.make ~epoch:s.epoch ~writer:(writer_of_tid ntid) s.block;
      s.recentlist <-
        { e_tid = ntid; e_time = t.now (); e_swap = None } :: s.recentlist;
      R_add { status = Add_ok; opmode = s.opmode; lmode = s.lmode }
    end

let do_checktid s ~ntid ~otid =
  if not (mem_tid ntid s.recentlist) then R_check Ck_init
  else if not (mem_tid otid s.recentlist) then R_check Ck_gc
  else R_check Ck_nochange

let do_trylock s ~caller lm =
  match s.lmode with
  | (L0 | L1) when s.lid = Some caller ->
    (* The caller already holds the lock: a duplicate delivery or a
       retry after a lost grant.  Re-granting with the remembered
       pre-acquisition mode keeps trylock idempotent, so the holder's
       backoff path still restores the right mode. *)
    s.lmode <- lm;
    R_trylock { ok = true; oldlmode = s.l_prev }
  | L0 | L1 -> R_trylock { ok = false; oldlmode = s.lmode }
  | Unl | Exp ->
    let old = s.lmode in
    s.l_prev <- old;
    s.lmode <- lm;
    s.lid <- Some caller;
    R_trylock { ok = true; oldlmode = old }

let do_setlock s ~caller lm =
  s.lmode <- lm;
  s.lid <- (if lm = Unl || lm = Exp then None else Some caller);
  R_ack

(* Deviation from Fig 6 (documented in DESIGN.md): the paper's get_state
   returns the block only when opmode = NORM.  A recoverer taking over a
   crashed recovery (opmode = RECONS) must decode from the adopted
   recons_set, whose members may already have been reconstructed; their
   RECONS blocks are exactly the consistent values, so we return blocks
   for RECONS slots as well.  INIT slots still return no block.

   Unlike read/swap, get_state must COPY the block: redundant-slot
   blocks are mutated in place by adds, and find_consistent compares
   state snapshots taken at different times — an aliased view could
   mutate between poll and comparison. *)
let do_get_state t ~id s =
  if s.opmode <> Init && not (self_ok t ~id s) then
    (* Rotted or stale member: answer exactly like a fresh INIT slot so
       find_consistent excludes it and recovery rebuilds it. *)
    R_state
      {
        st_opmode = Init;
        st_epoch = s.epoch;
        st_recons_set = None;
        st_oldlist = [];
        st_recentlist = [];
        st_block = None;
      }
  else
    R_state
      {
        st_opmode = s.opmode;
        st_epoch = s.epoch;
        st_recons_set = s.recons_set;
        st_oldlist = tids s.oldlist;
        st_recentlist = tids s.recentlist;
        st_block = (if s.opmode = Init then None else Some (Bytes.copy s.block));
      }

let do_getrecent s ~caller lm =
  s.lmode <- lm;
  s.lid <- Some caller;
  R_recent (tids s.recentlist)

let do_reconstruct s ~cset ~blk =
  s.opmode <- Recons;
  s.recons_set <- Some cset;
  (* Delta-log survival: recovery reconstructs EVERY member, including
     the up-to-date ones whose re-encoded value is byte-identical to
     what they hold.  For those the log still describes increments over
     the (unchanged) bytes, so it survives; a member whose bytes really
     changed can no longer vouch for its log — drop it and let the
     coming finalize re-anchor the completeness floor. *)
  if not (Bytes.equal s.block blk) then begin
    s.dlog <- [];
    s.dlog_bytes <- 0;
    s.dlog_reset <- true
  end;
  s.block <- Bytes.copy blk;
  s.meta <- Checksum.make ~epoch:s.epoch ~writer:0L s.block;
  R_reconstruct { epoch = s.epoch }

(* Finalize seals only what the recovery rebuilt: a slot not in
   [Recons] missed the reconstruct, so it keeps its epoch and lists
   (epoch-stale, repaired later) and only the caller's lock is
   released.  That covers a member that came back between reconstruct
   and finalize (sealing its old bytes at the new epoch would pass them
   off as current) and a resent finalize whose first copy already
   unlocked the slot (re-running it would wipe the lists of the writes
   that got in since). *)
let do_finalize s ~caller ~epoch =
  if s.opmode <> Recons then begin
    if s.lid = Some caller then begin
      s.lmode <- Unl;
      s.lid <- None
    end;
    R_ack
  end
  else begin
    (* Same bytes, new epoch: carry do_reconstruct's fresh record into
       the new epoch. *)
    s.meta <- Checksum.reseal s.meta ~epoch;
    s.epoch <- epoch;
    s.recentlist <- [];
    s.oldlist <- [];
    s.recons_set <- None;
    s.opmode <- Norm;
    s.lmode <- Unl;
    s.lid <- None;
    (* The new epoch's base absorbs everything: tombstones are moot, and a
       reconstruct-invalidated log becomes complete again FROM this epoch. *)
    if s.dlog_reset then begin
      s.dlog_floor <- max s.dlog_floor epoch;
      s.dlog_reset <- false
    end;
    s.tombs <- [];
    s.n_tombs <- 0;
    s.tombs_overflow <- false;
    R_ack
  end

let do_gc_old t s tids_to_drop =
  if s.opmode <> Norm || s.lmode <> Unl then R_gc { ok = false }
  else begin
    let dropped, kept =
      List.partition
        (fun e -> List.exists (fun x -> tid_compare x e.e_tid = 0) tids_to_drop)
        s.oldlist
    in
    s.oldlist <- kept;
    (* Tombstone what just left the lists: the write's effect stays in
       the block until the next finalize, and delta repair needs the tid
       for duplicate suppression on both sides of a catch-up. *)
    List.iter
      (fun e ->
        match pack_tid e.e_tid with
        | Some p when s.n_tombs < t.tombs_cap ->
          s.tombs <- p :: s.tombs;
          s.n_tombs <- s.n_tombs + 1
        | _ -> s.tombs_overflow <- true)
      dropped;
    R_gc { ok = true }
  end

let do_gc_recent s tids_to_move =
  if s.opmode <> Norm || s.lmode <> Unl then R_gc { ok = false }
  else begin
    let moved, kept =
      List.partition
        (fun e -> List.exists (fun t -> tid_compare t e.e_tid = 0) tids_to_move)
        s.recentlist
    in
    s.recentlist <- kept;
    (* The write completed everywhere: its saved pre-swap value can go. *)
    s.oldlist <- List.map (fun e -> { e with e_swap = None }) moved @ s.oldlist;
    R_gc { ok = true }
  end

(* --- Delta repair (node side) ---------------------------------------

   Three procedures let a repairer catch an epoch-stale member up
   without a k-block reconstruction: [Delta_probe] exposes the facts an
   eligibility decision needs (epoch, digest verdict, list/tombstone
   tids, log completeness floor); [Get_delta] hands out the logged adds
   since a given epoch, but only when the log provably covers them all;
   [Apply_delta] performs the catch-up on the stale member and reseals
   its integrity record at the target epoch.  All the set reasoning
   (which entries to ship, what the target already holds) lives in the
   repairer — the node stays a thin state machine. *)

let do_delta_probe t ~id s =
  R_delta_probe
    {
      dp_opmode = s.opmode;
      dp_epoch = s.epoch;
      dp_valid = s.opmode <> Init && self_ok t ~id s;
      dp_recent = tids s.recentlist;
      dp_old = tids s.oldlist;
      dp_tombs = List.map unpack_tid s.tombs;
      dp_tombs_overflow = s.tombs_overflow;
      dp_log_floor = s.dlog_floor;
      dp_log_bytes = s.dlog_bytes;
    }

let do_get_delta s ~since_epoch =
  let complete =
    s.opmode = Norm && (not s.dlog_reset) && s.dlog_floor <= since_epoch
  in
  let entries =
    if complete then
      List.filter (fun (e : delta_entry) -> e.d_epoch >= since_epoch) s.dlog
    else []
  in
  R_delta { entries; to_epoch = s.epoch; complete }

let do_apply_delta t ~id s ~entries ~absorbed ~from_epoch ~to_epoch =
  if
    s.opmode <> Norm || s.lmode <> Unl
    || s.epoch <> from_epoch
    || to_epoch <= from_epoch
    || s.tombs_overflow
    || not (self_ok t ~id s)
  then R_delta_applied { ok = false; applied = 0; epoch = s.epoch }
  else begin
    let (module K : Kernel.S) = t.kernel in
    let known tid =
      mem_tid tid s.recentlist || mem_tid tid s.oldlist
      || (match pack_tid tid with
         | Some p -> List.mem p s.tombs
         | None -> false)
    in
    (* Re-filter by tid on this side too: the repairer computed the ship
       set from a probe that may have raced a concurrent retry. *)
    let applied = ref 0 in
    List.iter
      (fun (e : delta_entry) ->
        if not (known e.d_tid) then begin
          K.xor_into ~dst:s.block ~src:e.d_dv;
          incr applied
        end)
      entries;
    (* Writes this member applied before crashing that a finalize since
       folded into the base: their effect is now base, not in-flight, so
       their list entries go — exactly what finalize would have done. *)
    s.recentlist <-
      List.filter (fun e -> not (mem_plain_tid e.e_tid absorbed)) s.recentlist;
    s.oldlist <-
      List.filter (fun e -> not (mem_plain_tid e.e_tid absorbed)) s.oldlist;
    s.tombs <- [];
    s.n_tombs <- 0;
    s.tombs_overflow <- false;
    s.epoch <- to_epoch;
    (* The cross-epoch reseal: the caught-up bytes are this member's
       value for the target epoch's base plus its leftover in-flight
       writes, sealed fresh like any other mutation. *)
    s.meta <- Checksum.make ~epoch:to_epoch ~writer:0L s.block;
    (* Conservative: claim log completeness only from the NEXT epoch —
       adds this member applied before the outage are not re-derivable
       from the shipped entries. *)
    s.dlog <- [];
    s.dlog_bytes <- 0;
    s.dlog_floor <- max s.dlog_floor (to_epoch + 1);
    s.dlog_reset <- false;
    R_delta_applied { ok = true; applied = !applied; epoch = to_epoch }
  end

(* Monitoring probe (Sec 3.10): stale = slots with a recentlist entry
   older than the threshold (a started-but-unfinished or un-GC'd write);
   init = slots holding garbage after a fail-remap. *)
let do_probe t ~older_than =
  let now = t.now () in
  let stale, init =
    Hashtbl.fold
      (fun id s (stale, init) ->
        let is_stale =
          List.exists (fun e -> now -. e.e_time > older_than) s.recentlist
        in
        let stale = if is_stale then id :: stale else stale in
        let init = if s.opmode = Init then id :: init else init in
        (stale, init))
      t.slots ([], [])
  in
  R_probe { stale = List.sort compare stale; init = List.sort compare init }

let rec handle t ~caller ~slot:slot_id req =
  match req with
  | Probe { older_than } ->
    (* Node-wide: must not materialize the addressed slot. *)
    do_probe t ~older_than
  | Gc_many { phase; slots } ->
    (* Node-wide as well: each entry is the per-slot GC request, with
       its lock expiry and Norm/Unl check. *)
    let busy =
      List.filter_map
        (fun (slot, tids) ->
          let req =
            match phase with `Old -> Gc_old tids | `Recent -> Gc_recent tids
          in
          match handle_slot t ~caller ~slot req with
          | R_gc { ok = true } -> None
          | _ -> Some slot)
        slots
    in
    R_gc_many { busy }
  | _ -> handle_slot t ~caller ~slot:slot_id req

and handle_slot t ~caller ~slot:slot_id req =
  let s = slot t slot_id in
  expire_if_holder_failed t s;
  match req with
  | Read -> do_read t ~id:slot_id s
  | Read_checked -> do_read_checked s
  | Get_meta -> do_get_meta t ~id:slot_id s
  | Mark_init -> do_mark_init s
  | Swap { v; ntid } -> do_swap t s ~v ~ntid
  | Add { dv; ntid; otid; epoch } ->
    apply_add t ~id:slot_id s ~dv ~alpha:1 ~ntid ~otid ~epoch
  | Add_bcast { dv; dblk; ntid; otid; epoch } ->
    let alpha =
      match t.alpha_for with
      | Some f -> f ~slot:slot_id ~dblk
      | None -> invalid_arg "Storage_node: broadcast add without alpha_for"
    in
    apply_add t ~id:slot_id s ~dv ~alpha ~ntid ~otid ~epoch
  | Checktid { ntid; otid } -> do_checktid s ~ntid ~otid
  | Trylock lm -> do_trylock s ~caller lm
  | Setlock lm -> do_setlock s ~caller lm
  | Get_state -> do_get_state t ~id:slot_id s
  | Getrecent lm -> do_getrecent s ~caller lm
  | Reconstruct { cset; blk } -> do_reconstruct s ~cset ~blk
  | Finalize { epoch } -> do_finalize s ~caller ~epoch
  | Gc_old l -> do_gc_old t s l
  | Gc_recent l -> do_gc_recent s l
  | Delta_probe -> do_delta_probe t ~id:slot_id s
  | Get_delta { since_epoch } -> do_get_delta s ~since_epoch
  | Apply_delta { entries; absorbed; from_epoch; to_epoch } ->
    do_apply_delta t ~id:slot_id s ~entries ~absorbed ~from_epoch ~to_epoch
  | Probe _ | Gc_many _ -> assert false (* dispatched in [handle] *)

let slot_count t = Hashtbl.length t.slots

(* Crash-recovery rejoin (delta-repair's state-preserving restart): a
   node that comes back with its disk intact can vouch for every slot
   whose state machine was between operations — including slots with
   in-flight recentlist entries.  If no recovery ran while the node was
   away, those writes are still in flight globally and simply resume;
   if one did run, it finalized a higher epoch at the survivors, so the
   returning member is epoch-stale and masked everywhere until repair —
   and the delta path's orphan check refuses catch-up (forcing a full
   rebuild) for any held write the source cannot account for, which is
   exactly the rolled-back case.  The one thing the node cannot vouch
   for is a reconstruction that was interrupted mid-flight: those
   slots' bytes are a torn mix, so they quarantine to INIT and rebuild. *)
let quarantine_inflight t =
  Hashtbl.fold
    (fun _ s acc ->
      if s.opmode = Recons then begin
        ignore (do_mark_init s);
        acc + 1
      end
      else acc)
    t.slots 0

(* Sec 6.5 accounting: opmode and lmode packed in 1 byte, lid 2, epoch 4,
   list lengths 2 bytes each, plus 12 bytes per retained tid and 4 for
   its timestamp; recons_set only while recovery is in flight.  An
   in-flight swap entry also pins its saved pre-swap block until the
   write completes. *)
let overhead_bytes t =
  Hashtbl.fold
    (fun _ s acc ->
      let per_entry = tid_bytes + 4 in
      let saved =
        List.fold_left
          (fun a e ->
            match e.e_swap with Some (b, _) -> a + Bytes.length b | None -> a)
          0 s.recentlist
      in
      let lists =
        per_entry * (List.length s.recentlist + List.length s.oldlist)
        + saved
      in
      let recons =
        match s.recons_set with None -> 0 | Some l -> 4 * List.length l
      in
      let repair = s.dlog_bytes + (tid_bytes * s.n_tombs) in
      acc + 1 + 2 + 4 + 2 + 2 + lists + recons + repair + Checksum.bytes_size)
    t.slots 0

let overhead_bytes_per_slot t =
  let n = slot_count t in
  if n = 0 then 0. else float_of_int (overhead_bytes t) /. float_of_int n

(* --- Integrity fault injection (at-rest, below the protocol) --------

   Both faults honor the aliasing contract above do_read: the stored
   block is never mutated in place, only pointer-replaced with a doctored
   copy, so previously handed-out references stay stable. *)

(* Silent bit rot: XOR masks into a copy of the stored bytes, leaving
   the integrity record untouched — which is what makes it silent.
   Returns false when the slot holds no committed data (non-NORM).  If
   the masks happen to cancel out, byte 0 is flipped so an injection
   recorded by the fault layer is always a real fault. *)
let corrupt_block t ~slot:id ~xors =
  match Hashtbl.find_opt t.slots id with
  | None -> false
  | Some s ->
    if s.opmode <> Norm then false
    else begin
      let b = Bytes.copy s.block in
      List.iter
        (fun (off, mask) ->
          if off >= 0 && off < Bytes.length b then
            Bytes.set b off
              (Char.chr (Char.code (Bytes.get b off) lxor Char.code mask)))
        xors;
      if Bytes.equal b s.block && Bytes.length b > 0 then
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
      s.block <- b;
      true
    end

(* Stale-but-well-formed state: capture a committed block together with
   its sealed record, and later roll both back.  The restored state is
   internally consistent — digest matches, seal verifies — so it is only
   catchable by the epoch check (if recovery finalized in between) or by
   a cross-member decode check. *)
type snapshot = { sn_block : bytes; sn_meta : Checksum.record }

let snapshot_slot t ~slot:id =
  match Hashtbl.find_opt t.slots id with
  | Some s when s.opmode = Norm ->
    Some { sn_block = Bytes.copy s.block; sn_meta = s.meta }
  | _ -> None

let rollback_slot t ~slot:id snap =
  match Hashtbl.find_opt t.slots id with
  | Some s when s.opmode = Norm ->
    s.block <- Bytes.copy snap.sn_block;
    s.meta <- snap.sn_meta;
    true
  | _ -> false

let peek_block t ~slot:id = (slot t id).block
let peek_meta t ~slot:id = (slot t id).meta
let slot_status t ~slot:id = self_status (slot t id)
let peek_opmode t ~slot:id = (slot t id).opmode
let peek_lmode t ~slot:id = (slot t id).lmode
let peek_epoch t ~slot:id = (slot t id).epoch
let peek_recentlist t ~slot:id = tids (slot t id).recentlist
let peek_oldlist t ~slot:id = tids (slot t id).oldlist
let peek_dlog t ~slot:id = List.map (fun e -> e.d_tid) (slot t id).dlog
let peek_dlog_bytes t ~slot:id = (slot t id).dlog_bytes
let peek_dlog_floor t ~slot:id = (slot t id).dlog_floor
let peek_tombs t ~slot:id = List.map unpack_tid (slot t id).tombs

let oldest_recent_age t ~now =
  Hashtbl.fold
    (fun _ s acc ->
      List.fold_left
        (fun acc e ->
          let age = now -. e.e_time in
          match acc with None -> Some age | Some a -> Some (Float.max a age))
        acc s.recentlist)
    t.slots None

let slots_in_opmode t mode =
  Hashtbl.fold (fun id s acc -> if s.opmode = mode then id :: acc else acc) t.slots []
  |> List.sort compare
