(* A sharded volume in action: 4 independent AJX stripe groups placed
   over a 10-node pool present one flat logical block address space.
   Concurrent writers stream into the volume while a pool node crashes
   and restarts; the background monitor repairs the
   remapped members without stopping service, and a degraded read
   decodes a block from the survivors before repair completes.

   Run with:  dune exec examples/sharded_volume.exe *)

open Ecs_volume

let () =
  let cfg = Config.make ~t_p:1 ~block_size:1024 ~k:3 ~n:5 ()
  and placement = Placement.make ~groups:4 ~nodes_per_group:5 ~pool:10 () in
  let sc = Shard_cluster.create ~placement cfg in

  Printf.printf "placement of 4 groups over a 10-node pool:\n";
  for g = 0 to 3 do
    Printf.printf "  group %d -> pool nodes [%s]\n" g
      (String.concat "; "
         (Array.to_list
            (Array.map string_of_int (Placement.group_nodes placement g))))
  done;
  Printf.printf "  per-node load: [%s]  (imbalance %d)\n\n"
    (String.concat "; "
       (Array.to_list (Array.map string_of_int (Placement.loads placement))))
    (Placement.max_load_imbalance placement);

  Shard_cluster.on_note sc (fun t event ->
      if event = "recovery.done" then
        Printf.printf "  t=%6.1f ms  background repair recovered a stripe\n"
          (1000. *. t));

  (* The crashed node hosts members of several groups; pick group 0's
     first member so we know which groups degrade. *)
  let victim = Placement.member placement ~group:0 ~index:0 in
  Printf.printf "pool node %d hosts members of groups [%s]\n\n" victim
    (String.concat "; "
       (List.map string_of_int (Placement.groups_on placement victim)));

  let blocks_per_writer = 32 in
  let writers = 3 in
  let written = Array.make (writers * blocks_per_writer) false in

  (* Three concurrent writers, each its own client (own NIC, own tids),
     striping disjoint logical blocks across all four groups. *)
  for w = 0 to writers - 1 do
    let volume = Volume.create sc ~id:w in
    Shard_cluster.spawn sc (fun () ->
        for i = 0 to blocks_per_writer - 1 do
          let l = (w * blocks_per_writer) + i in
          let payload = Bytes.make 1024 (Char.chr (0x41 + (l mod 26))) in
          Volume.write volume l payload;
          written.(l) <- true
        done;
        (* Fig 7: collect this client's completed writes. *)
        for g = 0 to Volume.groups volume - 1 do
          Volume.collect_garbage volume ~group:g
        done)
  done;

  (* Crash the victim 3 ms in, restart it 6 ms later; the restart remaps
     every hosted group member to a fresh INIT generation, which the
     maintenance monitor then repairs from the survivors. *)
  Shard_cluster.schedule_outage sc ~at:3.0e-3 ~node:victim ~down_for:6.0e-3;
  Engine.schedule (Shard_cluster.engine sc) ~at:3.0e-3 (fun () ->
      Printf.printf "  t=   3.0 ms  *** pool node %d crashes ***\n" victim);
  Engine.schedule (Shard_cluster.engine sc) ~at:9.0e-3 (fun () ->
      Printf.printf "  t=   9.0 ms  *** pool node %d restarts (INIT) ***\n"
        victim);

  (* While the node is down, decode a group-0 block from any k of the
     surviving members instead of waiting for repair. *)
  let reader = Volume.create sc ~id:99 in
  Engine.schedule (Shard_cluster.engine sc) ~at:5.0e-3 (fun () ->
      Shard_cluster.spawn sc (fun () ->
          let l = 0 (* group 0, the degraded one *) in
          match Volume.read_degraded reader l with
          | Some v ->
            Printf.printf
              "  t=%6.1f ms  degraded read of block %d -> %C... (decoded from \
               %d survivors)\n"
              (1000. *. Shard_cluster.now sc)
              l (Bytes.get v 0)
              (Shard_cluster.config sc).Config.k
          | None ->
            Printf.printf "  t=%6.1f ms  degraded read: no consistent view yet\n"
              (1000. *. Shard_cluster.now sc)))
  ;

  let bg = Background.start sc ~rate:5000. ~tasks:[ Monitor ] ~until:0.08 in
  Shard_cluster.run sc;

  Printf.printf "\nafter the dust settles:\n";
  Printf.printf "  writes completed: %d/%d\n"
    (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 written)
    (Array.length written);
  let c = Background.counters bg in
  Printf.printf "  maintenance: %d group visits, %d recoveries, %d GC rounds\n"
    c.maintenance_passes c.maintenance_recoveries c.maintenance_gc_rounds;

  (* Every block reads back what its writer stored, through the repaired
     node included. *)
  let volume = Volume.create sc ~id:100 in
  let ok = ref true in
  Shard_cluster.spawn sc (fun () ->
      Array.iteri
        (fun l done_ ->
          if done_ then begin
            let v = Volume.read volume l in
            if Bytes.get v 0 <> Char.chr (0x41 + (l mod 26)) then ok := false
          end)
        written);
  Shard_cluster.run sc;
  Printf.printf "  read-back of all %d blocks: %s\n"
    (Array.length written)
    (if !ok then "consistent" else "CORRUPT")
