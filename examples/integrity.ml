(* End-to-end integrity in action: silent at-rest faults — bit rot and
   a stale-but-well-formed rollback — are injected below the protocol,
   and every defense layer catches its share:

   - verified reads re-check each block against its sealed checksum
     record on the client, so hot data is never served rotten;
   - faults on redundant members, which no foreground read touches, are
     found by the budgeted background scrubber: a node-side digest
     self-check for bit rot, and the cross-member decode check for
     rollbacks whose record still matches their bytes;
   - everything flagged is rebuilt through the ordinary Fig 6 recovery
     path, and the detection lag of every fault is ledgered.

   Run with:  dune exec examples/integrity.exe *)

open Ecs_volume

let groups = 4

let () =
  let cfg =
    Config.make ~t_p:1 ~block_size:512 ~k:3 ~n:5 ~stale_write_age:10.
      ~integrity:{ Config.default_integrity with Config.verified_reads = true }
      ()
  in
  let placement =
    Placement.make ~seed:0x7ace ~groups ~nodes_per_group:5 ~pool:12 ()
  in
  let sc = Shard_cluster.create ~seed:0x1f ~placement cfg in

  (* Materialize four stripes per group, snapshotting one redundant
     member before its stripe is overwritten — the rollback fault will
     restore that internally-consistent-but-stale state. *)
  let snaps = Array.make groups None in
  Shard_cluster.spawn sc (fun () ->
      for g = 0 to groups - 1 do
        let client = Shard_cluster.make_group_client sc ~id:(500 + g) ~group:g in
        for s = 0 to 3 do
          for i = 0 to 2 do
            Client.write client ~slot:s ~i (Bytes.make 512 'a')
          done
        done;
        let layout = Shard_cluster.group_layout sc g in
        let r0 = Layout.node_of layout ~stripe:0 ~pos:3 in
        snaps.(g) <- Shard_cluster.snapshot_member sc ~group:g ~index:r0 ~slot:0;
        Client.write client ~slot:0 ~i:0 (Bytes.make 512 'b')
      done);
  Shard_cluster.run sc;

  let inject_at = 0.1 in
  Printf.printf
    "4 stripe groups over 12 nodes, verified reads on, background scrub \
     every 10 ms;\n\
     at t=%.0f ms each group gets 2 silent corruptions and 1 rollback, all \
     on redundant members\n\
     (no foreground read ever touches them — only the scrubber can see \
     the faults)\n\n"
    (1000. *. inject_at);
  let inject sc =
    for g = 0 to groups - 1 do
      let layout = Shard_cluster.group_layout sc g in
      let node ~slot pos = Layout.node_of layout ~stripe:slot ~pos in
      ignore
        (Shard_cluster.corrupt_member sc ~group:g ~index:(node ~slot:1 3)
           ~slot:1);
      ignore
        (Shard_cluster.corrupt_member sc ~group:g ~index:(node ~slot:2 4)
           ~slot:2);
      match snaps.(g) with
      | Some snap ->
        ignore
          (Shard_cluster.rollback_member sc ~group:g ~index:(node ~slot:0 3)
             ~slot:0 snap)
      | None -> ()
    done
  in
  let r =
    Vrunner.run_profile
      ~events:[ (inject_at, inject) ]
      ~background:(4800., [ Scrub 0.01 ]) ~blocks:48 ~sc
      ~tenants:
        (Vrunner.clients 4 (Profile.closed ~outstanding:4 ~write_frac:0. ()))
      ~duration:0.5 ()
  in

  Printf.printf "what the integrity layers did:\n";
  Printf.printf "  faults injected: %d   detected: %d   still latent: %d\n"
    r.Vrunner.corruptions_injected r.Vrunner.corruptions_detected
    (r.Vrunner.corruptions_injected - r.Vrunner.corruptions_detected);
  List.iteri
    (fun i lag ->
      Printf.printf "  fault %2d caught %6.1f ms after injection\n" i
        (1000. *. lag))
    r.Vrunner.detection_lag;
  let srep = r.Vrunner.background.scrub_report in
  Printf.printf
    "  scrub: %d sweeps, %d stripes scanned, %d repaired (%d flagged \
     members rebuilt), %d unrepaired\n\n"
    r.Vrunner.background.scrub_passes srep.Scrub.scanned srep.Scrub.repaired
    srep.Scrub.integrity_repaired srep.Scrub.unrepaired;
  Printf.printf "what the foreground noticed:\n";
  Printf.printf "  %d verified reads completed, none returned wrong bytes\n\n"
    r.Vrunner.run.Report.read_ops;

  (* Final sweep: every used stripe must be integrity-clean again. *)
  let v = Volume.create sc ~id:77 in
  let dirty = ref 0 and checked = ref 0 in
  Shard_cluster.spawn sc (fun () ->
      for g = 0 to Volume.groups v - 1 do
        let client = Volume.group_client v g in
        List.iter
          (fun slot ->
            incr checked;
            let rep = Client.check_integrity client ~slot in
            if
              (not rep.Client.ir_consistent)
              || rep.Client.ir_checksum <> []
              || rep.Client.ir_stale <> []
            then incr dirty)
          (Shard_cluster.used_slots sc ~group:g)
      done);
  Shard_cluster.run sc;
  let all_found =
    r.Vrunner.corruptions_detected = r.Vrunner.corruptions_injected
  in
  Printf.printf "final sweep: %d stripes checked, %d dirty -> %s\n" !checked
    !dirty
    (if !dirty = 0 && all_found then "every fault found and repaired"
     else "INTEGRITY INCOMPLETE");
  if !dirty > 0 || not all_found then exit 1
