(* Repair-bandwidth benchmark: what a transient outage costs to heal.

   Two deterministic legs (fixed seeds: CI runs the bench twice,
   compares the JSON byte-for-byte, then gates it against the committed
   BENCH_repair.json via [ecstore compare]):

   - catchup: a scripted single group seals an epoch under full
     membership, loses one node, absorbs one write per stripe while it
     is away, then revives it with its state intact.  The same catch-up
     sweep runs with delta repair on vs off; the bytes moved (source
     reads + shipped blocks) are counted from the repair.* metrics.
     Delta must ship only the missed adds — well under 0.2x the bytes
     of the full k-block rebuilds the eager path performs.

   - frontier: lazy repair floors x outage length on a 4-group volume
     under live load.  Two pool nodes hosting members of group 0 blip
     for [outage] seconds; the scheduler classifies each affected
     group by live redundancy against the floor.  Eager (floor = n)
     fails everything over immediately; floor n-1 defers the
     single-loss groups but not the double-loss one; floor k+1 defers
     everything.  A short blip resolves by in-place delta catch-up, a
     long one by grace-expired failover — the bandwidth/MTTR trade-off
     the floor buys. *)

open Ecs_volume

(* ------------------------------------------------------------------ *)
(* Leg 1: delta catch-up vs full rebuild after a state-keeping revive.

   The scenario that creates genuinely-missed adds: while the victim is
   down, a writer starts one write per stripe.  Each write swaps at its
   (live) data member and lands its adds on every live redundant member,
   then stalls retrying the dead one — AJX writes need all redundant
   members, so completion comes from recovery, not from the writer.  A
   second client then recovers every stripe, folding the in-flight
   writes into a new epoch at the live members; the victim misses that
   finalize.  When the victim revives with its sealed state intact, the
   catch-up sweep compares delta repair (ship the one missed add per
   stripe where the victim is redundant; pure epoch advance where it is
   a data member) against full k-block reconstruction. *)

let catchup_slots = 6

type catchup_out = {
  co_bytes_read : int;  (** repair source-read bytes over the catch-up *)
  co_bytes_shipped : int;
  co_delta_hits : int;
  co_full_rebuilds : int;
  co_repaired : int;  (** stripes the catch-up sweep recovered *)
  co_reads_ok : bool;  (** read-back matched every expected payload *)
}

let catchup_cfg ~delta =
  let repair = { Config.default_repair with Config.delta_repair = delta } in
  Config.make ~t_p:1 ~block_size:4096 ~k:3 ~n:6 ~repair ()

let catchup_run ~delta =
  let cfg = catchup_cfg ~delta in
  let placement =
    Placement.make ~seed:0x7ace ~groups:1 ~nodes_per_group:6 ~pool:8 ()
  in
  let sc = Shard_cluster.create ~seed:0xEC9 ~placement cfg in
  let out = ref None in
  Shard_cluster.spawn sc (fun () ->
      let client = Shard_cluster.make_group_client sc ~id:0 ~group:0 in
      let writer = Shard_cluster.make_group_client sc ~id:1 ~group:0 in
      let layout = Shard_cluster.group_layout sc 0 in
      let payload s i tag =
        Bytes.init cfg.Config.block_size (fun j ->
            Char.chr (((s * 31) + (i * 7) + (tag * 131) + j) land 0xff))
      in
      for s = 0 to catchup_slots - 1 do
        for i = 0 to cfg.Config.k - 1 do
          Client.write client ~slot:s ~i (payload s i 0)
        done
      done;
      (* Seal an epoch boundary under full membership: recovery's
         finalize absorbs the writes above into every member's base, so
         the delta log's epoch filter cleanly separates pre-outage
         history from the adds missed during the outage. *)
      for s = 0 to catchup_slots - 1 do
        Client.recover_slot client ~slot:s
      done;
      let victim = (Placement.group_nodes placement 0).(0) in
      Shard_cluster.crash_node sc victim;
      (* One write per stripe, each in its own fiber: it completes only
         through the fold below (roll-forward), so the fiber blocks
         retrying the victim's add until the end of the leg and is then
         released.  Target the first data position hosted by a live
         member so the swap lands. *)
      let written = Array.make catchup_slots 0 in
      for s = 0 to catchup_slots - 1 do
        let i = ref 0 in
        while Layout.node_of layout ~stripe:s ~pos:!i = 0 do
          incr i
        done;
        written.(s) <- !i;
        let i = !i in
        Shard_cluster.spawn sc (fun () ->
            try Client.write writer ~slot:s ~i (payload s i 1)
            with Client.Stuck _ | Client.Write_abandoned _ -> ())
      done;
      (* Let every writer swap and land its adds on the live members,
         then fold the in-flight writes into a fresh epoch (finalized at
         the live five only — the victim misses it). *)
      Fiber.sleep 0.005;
      for s = 0 to catchup_slots - 1 do
        Client.recover_slot client ~slot:s
      done;
      Shard_cluster.revive_node sc victim;
      (* Keep the writer's stalled adds away from the revived member
         until the catch-up is measured (they would otherwise complete
         and shrink what delta repair has to ship). *)
      Shard_cluster.set_pool_link_faults sc ~client:1 ~node:victim
        (Some { Net.no_faults with Net.drop = 1.0 });
      (* Let the catch-up client's circuit breaker quarantine lapse, so
         its probes reach the revived member instead of fast-failing. *)
      Fiber.sleep (2. *. cfg.Config.health.Config.quarantine);
      let m = Shard_cluster.group_metrics sc 0 in
      let read0 = Metrics.counter m "repair.bytes_read" in
      let ship0 = Metrics.counter m "repair.bytes_shipped" in
      let hits0 = Metrics.counter m "repair.delta_hits" in
      let full0 = Metrics.counter m "repair.full_rebuilds" in
      let repaired = ref 0 in
      for s = 0 to catchup_slots - 1 do
        let h = Client.verify_slot client ~slot:s in
        if not h.Client.sh_healthy then begin
          Client.recover_slot client ~slot:s;
          incr repaired
        end
      done;
      let reads_ok = ref true in
      for s = 0 to catchup_slots - 1 do
        for i = 0 to cfg.Config.k - 1 do
          let tag = if i = written.(s) then 1 else 0 in
          let b = Client.read client ~slot:s ~i in
          if not (Bytes.equal b (payload s i tag)) then reads_ok := false
        done
      done;
      let m = Shard_cluster.group_metrics sc 0 in
      out :=
        Some
          {
            co_bytes_read = Metrics.counter m "repair.bytes_read" - read0;
            co_bytes_shipped = Metrics.counter m "repair.bytes_shipped" - ship0;
            co_delta_hits = Metrics.counter m "repair.delta_hits" - hits0;
            co_full_rebuilds = Metrics.counter m "repair.full_rebuilds" - full0;
            co_repaired = !repaired;
            co_reads_ok = !reads_ok;
          };
      (* Release the stalled writers: with the link restored their adds
         reach the caught-up member (stale-epoch adds are rejected by
         the epoch guard; the writers re-swap at the current epoch and
         complete with zero-delta rounds). *)
      Shard_cluster.set_pool_link_faults sc ~client:1 ~node:victim None);
  Shard_cluster.run sc;
  match !out with
  | Some o -> o
  | None -> failwith "repair bench: catchup leg did not finish"

let catchup_fields (o : catchup_out) =
  let open Report in
  [
    ("bytes_read", J_int o.co_bytes_read);
    ("bytes_shipped", J_int o.co_bytes_shipped);
    ("bytes_total", J_int (o.co_bytes_read + o.co_bytes_shipped));
    ("delta_hits", J_int o.co_delta_hits);
    ("full_rebuilds", J_int o.co_full_rebuilds);
    ("repaired", J_int o.co_repaired);
    ("reads_ok", J_bool o.co_reads_ok);
  ]

(* ------------------------------------------------------------------ *)
(* Leg 2: repair floors x outage length under live load.               *)

let frontier_floors = [ ("eager", None); ("n-1", Some 5); ("k+1", Some 4) ]
let frontier_outages_ms = [ 50; 300 ]

(* The grace must outlast the long blip for the floors to pay off, and
   the stale-write age must fire within it: writes against a stripe
   with a down redundant member stall until repair, and it is the
   monitor folding those stalled writes into a fresh epoch that creates
   the adds a returning node catches up on.  GC is paced faster than
   the stale age so completed-but-uncollected tids never look stale. *)
let frontier_grace = 0.35
let frontier_stale_age = 0.15
let frontier_gc_every = 0.02
let blip_at = 0.12
let frontier_duration = 0.7

let frontier_run ~floor ~outage =
  let repair =
    {
      Config.default_repair with
      Config.repair_floor = floor;
      repair_grace = frontier_grace;
    }
  in
  let cfg =
    Config.make ~t_p:1 ~block_size:1024 ~k:3 ~n:6
      ~stale_write_age:frontier_stale_age ~repair ()
  in
  let placement =
    Placement.make ~seed:0x7ace ~groups:4 ~nodes_per_group:6 ~pool:12 ()
  in
  let sc = Shard_cluster.create ~seed:0xEC8 ~placement cfg in
  (* Two distinct pool nodes of group 0: the double loss drops group 0
     to n-2 = 4 live members, so floor n-1 treats it urgent while
     deferring the groups that lost only one member. *)
  let victims =
    [
      (Placement.group_nodes placement 0).(0);
      (Placement.group_nodes placement 0).(1);
    ]
  in
  let events =
    [
      ( blip_at,
        fun sc ->
          List.iter
            (fun v ->
              Shard_cluster.schedule_blip sc ~at:(Shard_cluster.now sc)
                ~node:v ~down_for:outage)
            victims );
    ]
  in
  let ck = Checker.create () in
  let r =
    Vrunner.run_profile ~events ~background:(4000., [ Monitor; Supervise ])
      ~gc_every:(Some frontier_gc_every) ~check:ck ~blocks:128 ~sc
      ~tenants:
        (Vrunner.clients 4 (Profile.closed ~outstanding:4 ~write_frac:0.5 ()))
      ~duration:frontier_duration ()
  in
  let consistent =
    match Checker.check ck with Ok _ -> true | Error _ -> false
  in
  (victims, r, consistent)

let frontier_fields ~label ~floor ~outage_ms victims (r : Vrunner.result)
    consistent =
  let bg = r.Vrunner.background in
  let mttrs =
    List.filter_map
      (fun v ->
        match List.assoc_opt v bg.repaired_at with
        | Some t -> Some (t -. blip_at)
        | None -> None)
      victims
  in
  let mttr_ms =
    match mttrs with
    | [] -> Report.J_raw "null"
    | l ->
      Report.J_float
        (1000. *. (List.fold_left ( +. ) 0. l /. float_of_int (List.length l)),
         4)
  in
  let open Report in
  [
    ("floor", J_str label);
    ( "floor_members",
      match floor with Some f -> J_int f | None -> J_raw "null" );
    ("outage_ms", J_int outage_ms);
    ("deferrals", J_int bg.supervisor_deferrals);
    ("catchups", J_int bg.supervisor_catchups);
    ("failovers", J_int bg.supervisor_failovers);
    ("repairs", J_int bg.supervisor_repairs);
    ("delta_hits", J_int r.Vrunner.repair_delta_hits);
    ("full_rebuilds", J_int r.Vrunner.repair_full_rebuilds);
    ("bytes_read", J_int r.Vrunner.repair_bytes_read);
    ("bytes_shipped", J_int r.Vrunner.repair_bytes_shipped);
    ("mttr_ms", mttr_ms);
    ("p99_write_ms", J_float (1000. *. r.Vrunner.pf_p99_write, 4));
    ("write_stalls", J_int r.Vrunner.failures.write_stuck);
    ("history_consistent", J_bool consistent);
  ]

(* ------------------------------------------------------------------ *)

let run ?json () =
  let ok = ref true in
  let d = catchup_run ~delta:true in
  let f = catchup_run ~delta:false in
  let total o = o.co_bytes_read + o.co_bytes_shipped in
  let ratio =
    if total f > 0 then float_of_int (total d) /. float_of_int (total f)
    else nan
  in
  Printf.printf
    "catchup: delta %d B (%d delta hits, %d full) vs full %d B (%d full) -> \
     ratio %.3f\n\
     %!"
    (total d) d.co_delta_hits d.co_full_rebuilds (total f) f.co_full_rebuilds
    ratio;
  ok :=
    !ok && d.co_reads_ok && f.co_reads_ok && d.co_delta_hits >= 1
    && ratio < 0.2;
  let legs =
    List.concat_map
      (fun (label, floor) ->
        List.map
          (fun outage_ms ->
            let outage = float_of_int outage_ms /. 1000. in
            let victims, r, consistent = frontier_run ~floor ~outage in
            let bg = r.Vrunner.background in
            Printf.printf
              "frontier floor=%-5s outage=%3d ms: deferrals %d, catchups %d, \
               failovers %d | delta %d, full %d, read %d B, shipped %d B | \
               consistent %b\n\
               %!"
              label outage_ms bg.supervisor_deferrals bg.supervisor_catchups
              bg.supervisor_failovers
              r.Vrunner.repair_delta_hits r.Vrunner.repair_full_rebuilds
              r.Vrunner.repair_bytes_read r.Vrunner.repair_bytes_shipped
              consistent;
            ok := !ok && consistent;
            ( label,
              floor,
              outage_ms,
              frontier_fields ~label ~floor ~outage_ms victims r consistent ))
          frontier_outages_ms)
      frontier_floors
  in
  (* The eager configuration must reproduce the seed's behaviour: no
     deferral ever, every blip handled by immediate failover. *)
  List.iter
    (fun (label, _, _, fields) ->
      if label = "eager" then
        match List.assoc "deferrals" fields with
        | Report.J_int 0 -> ()
        | _ -> ok := false)
    legs;
  (match json with
  | None -> ()
  | Some path ->
    let open Report in
    let doc =
      J_obj
        [
          ( "config",
            J_obj
              [
                ("k", J_int 3);
                ("n", J_int 6);
                ("catchup_block_size", J_int 4096);
                ("catchup_slots", J_int catchup_slots);
                ("frontier_block_size", J_int 1024);
                ("frontier_duration_s", J_float (frontier_duration, 3));
                ("grace_s", J_float (frontier_grace, 3));
                ("blip_at_s", J_float (blip_at, 3));
              ] );
          ( "catchup",
            J_obj
              [
                ("delta", J_obj (catchup_fields d));
                ("full", J_obj (catchup_fields f));
                ("byte_ratio", J_float (ratio, 4));
              ] );
          ( "frontier",
            J_arr (List.map (fun (_, _, _, fields) -> J_obj fields) legs) );
        ]
    in
    Report.write_file path doc;
    Printf.printf "wrote %s\n%!" path);
  if not !ok then exit 1
