(* Thin facade over the layered protocol stack: Session (RPC policy),
   Write_path (Fig 5), Read_path (Fig 4 + extensions), Recovery (Fig 6),
   Gc (Fig 7 + Sec 3.10).  All protocol logic lives in those modules;
   this file only wires them together. *)

type call_result = Transport.call_result

exception Data_loss = Session.Data_loss
exception Stuck = Session.Stuck
exception Write_abandoned = Session.Write_abandoned

type t = {
  cfg : Config.t;
  metrics : Metrics.t;
  session : Session.t;
  recovery : Recovery.t;
  write_path : Write_path.t;
  read_path : Read_path.t;
  gc : Gc.t;
}

let of_transport ?(sink = Trace.null_sink) ~locate ?repair_planner cfg code
    transport =
  if Rs_code.k code <> cfg.Config.k || Rs_code.n code <> cfg.Config.n then
    invalid_arg "Client.of_transport: code does not match configuration";
  let metrics = Metrics.create () in
  let session =
    Session.create ~cfg
      ~sink:(Trace.compose [ Metrics.sink metrics; sink ])
      ~locate transport
  in
  let recovery = Recovery.create ?planner:repair_planner ~code session in
  {
    cfg;
    metrics;
    session;
    recovery;
    write_path = Write_path.create ~code ~recovery session;
    read_path = Read_path.create ~code ~recovery session;
    gc = Gc.create ~recovery session;
  }

let config t = t.cfg
let metrics t = t.metrics
let health t = Session.health t.session
let read_verified t ~slot ~i = Read_path.read_verified t.read_path ~slot ~i

let read t ~slot ~i =
  if t.cfg.Config.integrity.Config.verified_reads then read_verified t ~slot ~i
  else Read_path.read t.read_path ~slot ~i

let write t ~slot ~i v =
  let tid = Write_path.write t.write_path ~slot ~i v in
  Gc.completed t.gc ~slot tid

let recover_slot ?delta t ~slot = Recovery.start ?delta t.recovery ~slot
let collect_garbage t = Gc.collect t.gc
let monitor_once t ~slots = Gc.monitor_once t.gc ~slots
let probe t ~slots = Gc.probe t.gc ~slots

type slot_health = Read_path.slot_health = {
  sh_live : int;
  sh_consistent : int;
  sh_init : int;
  sh_healthy : bool;
}

let verify_slot t ~slot = Read_path.verify_slot t.read_path ~slot
let read_degraded t ~slot ~i = Read_path.read_degraded t.read_path ~slot ~i

type integrity_report = Read_path.integrity_report = {
  ir_live : int;
  ir_checksum : int list;
  ir_stale : int list;
  ir_consistent : bool;
}

let check_integrity t ~slot = Read_path.check_integrity t.read_path ~slot

let note_repair t ~slot ~pos =
  let ctx = Session.new_ctx t.session Trace.Op_scrub ~slot in
  Session.emit t.session ctx (Trace.Integrity_repaired { pos })
let pending_gc t = Gc.pending t.gc
let writes_completed t = Metrics.counter t.metrics "op.write.count"

let reads_completed t =
  Metrics.counter t.metrics "op.read.count"
  + Metrics.counter t.metrics "op.degraded_read.count"

let recoveries_run t = Recovery.runs t.recovery
let delta_repairs_run t = Recovery.delta_runs t.recovery
