type t = {
  session : Session.t;
  recovery : Recovery.t;
  mutable pending_gc : (int * Proto.tid) list; (* completed, not yet moved *)
  mutable old_gc : (int * Proto.tid) list; (* moved to oldlist, not dropped *)
}

let create ~recovery session = { session; recovery; pending_gc = []; old_gc = [] }
let completed t ~slot tid = t.pending_gc <- (slot, tid) :: t.pending_gc
let pending t = List.length t.pending_gc + List.length t.old_gc

(* [(slot, tid)] pairs as one [(slot, tids)] entry per slot. *)
let by_slot entries =
  List.fold_left
    (fun acc (slot, tid) ->
      match acc with
      | (s, tids) :: rest when s = slot -> (s, tid :: tids) :: rest
      | _ -> (slot, [ tid ]) :: acc)
    []
    (List.stable_sort (fun (a, _) (b, _) -> compare b a) entries)

(* One [Gc_many] per node, under [pfor]: each node gets, per slot, the
   tids whose write touched a position it serves.  A (slot, tid) is
   kept for the next round iff a node it was sent to reported the slot
   busy (locked / recovering) or timed out; GC requests are idempotent.
   A [`Node_down] node's lists died with it: nothing to collect there. *)
let gc_round t ctx ~phase entries =
  let { Config.n; k; _ } = Session.cfg t.session in
  let redundant = List.init (n - k) (fun r -> k + r) in
  let per_node = Array.make n [] in
  List.iter
    (fun ((slot, tid) as e) ->
      List.iter
        (fun pos ->
          let node = Session.node_of t.session ~slot ~pos in
          per_node.(node) <- e :: per_node.(node))
        (tid.Proto.blk :: redundant))
    entries;
  (* Each thunk writes only its own cell, whatever order they finish in. *)
  let kept = Array.make n [] in
  let send node () =
    let mine = per_node.(node) in
    let req = Proto.Gc_many { phase; slots = by_slot mine } in
    match Session.call_node t.session ctx ~node req with
    | Ok (Proto.R_gc_many { busy }) ->
      kept.(node) <- List.filter (fun (s, _) -> List.mem s busy) mine
    | Error `Timeout -> kept.(node) <- mine
    | Ok _ | Error `Node_down -> ()
  in
  Session.pfor t.session
    (List.filter_map
       (fun node -> if per_node.(node) = [] then None else Some (send node))
       (List.init n Fun.id));
  let keep = Hashtbl.create 16 in
  Array.iter (List.iter (fun e -> Hashtbl.replace keep e ())) kept;
  let kept, acked = List.partition (Hashtbl.mem keep) entries in
  if entries <> [] then
    Session.emit t.session ctx
      (Trace.Gc_batch
         { phase; sent = List.length entries; acked = List.length acked });
  (acked, kept)

let collect t =
  let ctx = Session.new_ctx t.session Trace.Op_gc ~slot:(-1) in
  Session.with_op t.session ctx @@ fun () ->
  (* Phase 1: drop tids (moved to oldlist in a previous round) from
     oldlists. *)
  let _dropped, kept_old = gc_round t ctx ~phase:`Old t.old_gc in
  (* Phase 2: move freshly completed tids from recentlist to oldlist. *)
  let moved, kept_pending = gc_round t ctx ~phase:`Recent t.pending_gc in
  t.old_gc <- moved @ kept_old;
  t.pending_gc <- kept_pending

(* Monitoring (Sec 3.10): the slots any node flags as holding a stale
   unfinished write or an INIT block, restricted to [slots] unless that
   is empty. *)
let flagged_slots t ctx ~slots =
  let cfg = Session.cfg t.session in
  let flagged = Hashtbl.create 8 in
  for node = 0 to cfg.Config.n - 1 do
    match
      Session.call_node t.session ctx ~node
        (Proto.Probe { older_than = cfg.Config.stale_write_age })
    with
    | Ok (Proto.R_probe { stale; init }) ->
      Session.emit t.session ctx
        (Trace.Probe_result
           { node; stale = List.length stale; init = List.length init });
      List.iter (fun s -> Hashtbl.replace flagged s ()) stale;
      List.iter (fun s -> Hashtbl.replace flagged s ()) init
    | Ok _ -> ()
    | Error _ ->
      Session.emit t.session ctx (Trace.Probe_result { node; stale = 0; init = 0 })
  done;
  let universe = List.sort_uniq compare slots in
  Hashtbl.fold
    (fun slot () acc ->
      if universe = [] || List.mem slot universe then slot :: acc else acc)
    flagged []
  |> List.rev

let probe t ~slots =
  let ctx = Session.new_ctx t.session Trace.Op_monitor ~slot:(-1) in
  Session.with_op t.session ctx @@ fun () -> flagged_slots t ctx ~slots

let monitor_once t ~slots =
  let ctx = Session.new_ctx t.session Trace.Op_monitor ~slot:(-1) in
  Session.with_op t.session ctx @@ fun () ->
  List.iter
    (fun slot -> Recovery.start t.recovery ~parent:ctx ~slot)
    (flagged_slots t ctx ~slots)
