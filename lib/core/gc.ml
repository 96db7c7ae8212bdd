type t = {
  session : Session.t;
  recovery : Recovery.t;
  mutable pending_gc : (int * Proto.tid) list; (* completed, not yet moved *)
  mutable old_gc : (int * Proto.tid) list; (* moved to oldlist, not dropped *)
}

let create ~recovery session = { session; recovery; pending_gc = []; old_gc = [] }
let completed t ~slot tid = t.pending_gc <- (slot, tid) :: t.pending_gc
let pending t = List.length t.pending_gc + List.length t.old_gc

let positions_of_tid t tid =
  let cfg = Session.cfg t.session in
  let reds = List.init (cfg.Config.n - cfg.Config.k) (fun r -> cfg.Config.k + r) in
  List.sort_uniq compare (tid.Proto.blk :: reds)

(* Send one GC request per (slot, position) batch; a tid survives to the
   next round unless every node acknowledged. *)
let gc_round t ctx ~phase ~make_req entries =
  let ok_tbl = Hashtbl.create 16 in
  List.iter (fun (slot, tid) -> Hashtbl.replace ok_tbl (slot, tid) true) entries;
  let by_slot = Hashtbl.create 8 in
  List.iter
    (fun (slot, tid) ->
      let cur = Option.value (Hashtbl.find_opt by_slot slot) ~default:[] in
      Hashtbl.replace by_slot slot (tid :: cur))
    entries;
  Hashtbl.iter
    (fun slot tids ->
      let poss =
        List.sort_uniq compare (List.concat_map (positions_of_tid t) tids)
      in
      List.iter
        (fun pos ->
          let relevant =
            List.filter (fun tid -> List.mem pos (positions_of_tid t tid)) tids
          in
          match Session.call t.session ctx ~slot ~pos (make_req relevant) with
          | Ok (Proto.R_gc { ok = true }) -> ()
          | Ok (Proto.R_gc { ok = false }) | Error `Timeout ->
            (* Node busy (locked / recovering) or unreachable through a
               lossy link: GC requests are idempotent, keep these tids
               for the next round. *)
            List.iter
              (fun tid -> Hashtbl.replace ok_tbl (slot, tid) false)
              relevant
          | Ok _ -> ()
          | Error `Node_down ->
            (* Its lists died with it; nothing to collect there. *)
            ())
        poss)
    by_slot;
  let acked, kept = List.partition (fun key -> Hashtbl.find ok_tbl key) entries in
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
  let dropped, kept_old =
    gc_round t ctx ~phase:`Old ~make_req:(fun l -> Proto.Gc_old l) t.old_gc
  in
  ignore dropped;
  (* Phase 2: move freshly completed tids from recentlist to oldlist. *)
  let moved, kept_pending =
    gc_round t ctx ~phase:`Recent
      ~make_req:(fun l -> Proto.Gc_recent l)
      t.pending_gc
  in
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
