(* Self-healing in action: a pool node fail-stops with NO scripted
   remap or restart, and the system repairs itself end to end —

   - every client's per-node health tracker escalates the silent node
     Healthy -> Suspect -> Down (accrual suspicion over adaptive,
     latency-derived deadlines), the circuit breaker quarantining it on
     the way so fast-path requests stop waiting on a corpse;
   - the background scheduler confirms the verdict, fails the node's
     group members over to fresh replacements, and drives targeted
     Fig 6 recovery of the affected stripes ahead of its monitor
     sweeps, on the same token bucket;
   - meanwhile reads whose data node is the victim answer from the
     surviving blocks (degraded decode / hedged reads) instead of
     stalling behind timeouts.

   Run with:  dune exec examples/self_healing.exe *)

open Ecs_volume

let () =
  let cfg = Config.make ~t_p:1 ~block_size:512 ~k:3 ~n:5 () in
  let placement =
    Placement.make ~seed:0x7ace ~groups:4 ~nodes_per_group:5 ~pool:12 ()
  in
  let sc = Shard_cluster.create ~seed:0x0c ~placement cfg in
  let victim = (Placement.group_nodes placement 0).(0) in
  let crash_at = 0.08 in
  Printf.printf
    "pool of 12 nodes, 4 stripe groups; node %d (hosting groups [%s]) will \
     fail-stop at t=%.0f ms, unannounced\n\n"
    victim
    (String.concat "; "
       (List.map string_of_int (Placement.groups_on placement victim)))
    (1000. *. crash_at);
  let events = [ (crash_at, fun sc -> Shard_cluster.crash_node sc victim) ] in
  let r =
    Vrunner.run_profile ~events ~background:(4000., [ Monitor; Supervise ])
      ~blocks:128 ~sc
      ~tenants:
        (Vrunner.clients 4 (Profile.closed ~outstanding:4 ~write_frac:0.5 ()))
      ~duration:0.4 ()
  in

  let bg = r.Vrunner.background in
  Printf.printf "what the supervision layer did:\n";
  List.iter
    (fun (node, t) ->
      Printf.printf "  t=%6.1f ms  node %d declared Down (%.2f ms after the \
                     crash)\n"
        (1000. *. t) node
        (1000. *. (t -. crash_at)))
    bg.detections;
  List.iter
    (fun (node, t) ->
      Printf.printf
        "  t=%6.1f ms  node %d's stripes rebuilt on fresh hosts (MTTR %.1f \
         ms)\n"
        (1000. *. t) node
        (1000. *. (t -. crash_at)))
    bg.repaired_at;
  Printf.printf
    "  members failed over: %d   stripes repaired: %d   false alarms: %d\n\n"
    bg.supervisor_failovers bg.supervisor_repairs bg.supervisor_false_alarms;

  Printf.printf "what the foreground noticed:\n";
  Printf.printf "  %d reads + %d writes completed; %d writes stalled\n"
    r.Vrunner.run.Report.read_ops r.Vrunner.run.Report.write_ops
    r.Vrunner.failures.Report.write_stuck;
  Printf.printf
    "  hedged reads launched: %d (won %d)   breaker fast-fails: %d\n\n"
    r.Vrunner.failures.Report.hedges r.Vrunner.failures.Report.hedge_wins
    r.Vrunner.failures.Report.fast_fails;

  (* Full resiliency is back: every used stripe of every group has all
     n members answering, none of them blank. *)
  let v = Volume.create sc ~id:77 in
  let unhealthy = ref 0 and checked = ref 0 in
  Shard_cluster.spawn sc (fun () ->
      for g = 0 to Volume.groups v - 1 do
        let client = Volume.group_client v g in
        List.iter
          (fun slot ->
            incr checked;
            let h = Client.verify_slot client ~slot in
            if not h.Client.sh_healthy then incr unhealthy)
          (Shard_cluster.used_slots sc ~group:g)
      done);
  Shard_cluster.run sc;
  Printf.printf "final sweep: %d stripes checked, %d unhealthy -> %s\n"
    !checked !unhealthy
    (if !unhealthy = 0 then "full resiliency restored" else "REPAIR INCOMPLETE");
  if !unhealthy > 0 then exit 1
