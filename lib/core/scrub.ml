type report = {
  scanned : int;
  healthy : int;
  repaired : int;
  unrepaired : int;
  corrupt_detected : int;
  stale_detected : int;
  integrity_repaired : int;
}

let empty =
  {
    scanned = 0;
    healthy = 0;
    repaired = 0;
    unrepaired = 0;
    corrupt_detected = 0;
    stale_detected = 0;
    integrity_repaired = 0;
  }

let merge a b =
  {
    scanned = a.scanned + b.scanned;
    healthy = a.healthy + b.healthy;
    repaired = a.repaired + b.repaired;
    unrepaired = a.unrepaired + b.unrepaired;
    corrupt_detected = a.corrupt_detected + b.corrupt_detected;
    stale_detected = a.stale_detected + b.stale_detected;
    integrity_repaired = a.integrity_repaired + b.integrity_repaired;
  }

(* One stripe: integrity check first (the metadata probe makes rotted
   members answer [get_state] as INIT and the cross-check quarantines
   same-record rollbacks), then the structural health check, then
   ordinary recovery if anything is off.  Repair is not a special
   mechanism — a flagged member looks exactly like a fail-remapped
   replacement to the Fig 6 machinery. *)
let scrub_slot client ~slot =
  let ir = Client.check_integrity client ~slot in
  let flagged = ir.Client.ir_checksum @ ir.Client.ir_stale in
  let before = Client.verify_slot client ~slot in
  let clean =
    before.Client.sh_healthy && ir.Client.ir_consistent && flagged = []
  in
  let base =
    {
      empty with
      scanned = 1;
      corrupt_detected = List.length ir.Client.ir_checksum;
      stale_detected = List.length ir.Client.ir_stale;
    }
  in
  if clean then { base with healthy = 1 }
  else begin
    Client.recover_slot client ~slot;
    let after = Client.verify_slot client ~slot in
    if after.Client.sh_healthy then begin
      List.iter (fun pos -> Client.note_repair client ~slot ~pos) flagged;
      { base with repaired = 1; integrity_repaired = List.length flagged }
    end
    else { base with unrepaired = 1 }
  end

let scrub client ~slots =
  List.fold_left
    (fun acc slot -> merge acc (scrub_slot client ~slot))
    empty
    (List.sort_uniq compare slots)

let pp_report fmt r =
  Format.fprintf fmt
    "scanned %d stripe(s): %d healthy, %d repaired, %d unrepaired; integrity: \
     %d corrupt, %d stale, %d repaired"
    r.scanned r.healthy r.repaired r.unrepaired r.corrupt_detected
    r.stale_detected r.integrity_repaired
