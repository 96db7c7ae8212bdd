(* Quickstart: bring up a simulated 5-node cluster storing data under a
   3-of-5 Reed-Solomon code, write a few blocks through the Volume API,
   read them back, and show what a node crash costs.

   Run with:  dune exec examples/quickstart.exe *)

open Ecs_volume

let () =
  (* A 3-of-5 code: 3 data + 2 redundant blocks per stripe, tolerating
     (with parallel updates and t_p = 1 crashed client) one storage-node
     crash -- see Core.Resilience for the formulas. *)
  let cfg =
    Config.make ~strategy:Config.Parallel ~t_p:1 ~block_size:1024 ~k:3 ~n:5 ()
  in
  Printf.printf "3-of-5 cluster, parallel updates, t_p=%d => t_d=%d\n"
    cfg.Config.t_p cfg.Config.t_d;

  let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
  let volume = Volume.create cluster ~id:0 in

  (* All protocol work happens inside simulation fibers. *)
  Shard_cluster.spawn cluster (fun () ->
      (* Write ten logical blocks. *)
      for l = 0 to 9 do
        let contents = Bytes.make 1024 (Char.chr (Char.code 'A' + l)) in
        Volume.write volume l contents
      done;
      Printf.printf "wrote 10 blocks at t=%.3f ms\n" (1000. *. Fiber.now ());

      (* Read them back. *)
      let ok = ref true in
      for l = 0 to 9 do
        let v = Volume.read volume l in
        if Bytes.get v 0 <> Char.chr (Char.code 'A' + l) then ok := false
      done;
      Printf.printf "read 10 blocks back: %s\n"
        (if !ok then "all correct" else "MISMATCH");

      (* Crash a storage node; the next read of an affected block
         triggers online recovery, transparently. *)
      Shard_cluster.replace_node cluster 0;
      Printf.printf "crashed storage node 0 at t=%.3f ms\n"
        (1000. *. Fiber.now ());
      let v = Volume.read volume 0 in
      Printf.printf "block 0 after crash reads %c (recovery ran %d time(s))\n"
        (Bytes.get v 0)
        (int_of_float
           (Stats.counter (Shard_cluster.stats cluster) "note.recovery.done")));
  Shard_cluster.run cluster;

  let stats = Shard_cluster.stats cluster in
  Printf.printf "total: %.0f messages, %.1f KB moved, simulated %.3f ms\n"
    (Stats.counter stats "msgs")
    (Stats.counter stats "bytes" /. 1024.)
    (1000. *. Shard_cluster.now cluster)
