(* Degraded reads and the scrubber (extensions built on the paper's
   recovery machinery): when a data node dies and no replacement is
   available yet, a client can still serve reads by decoding from any k
   mutually-consistent blocks — no locks, no waiting.  When a
   replacement does arrive, the scrubber restores full redundancy in one
   sweep.

   Run with:  dune exec examples/degraded_reads.exe *)

open Ecs_volume

let () =
  let cfg =
    Config.make ~strategy:Config.Parallel ~t_p:1 ~block_size:1024 ~k:3 ~n:5 ()
  in
  (* Manual remap policy: dead nodes stay dead until we install a
     replacement, modelling the window before a spare is provisioned. *)
  let cluster = Shard_cluster.create ~remap_policy:`Manual cfg in
  let volume = Volume.create cluster ~id:0 in
  let client = Volume.group_client volume 0 in

  Shard_cluster.spawn cluster (fun () ->
      for l = 0 to 8 do
        Volume.write volume l (Bytes.make 1024 (Char.chr (Char.code '0' + l)))
      done;
      Printf.printf "wrote 9 blocks across %d stripes\n"
        (List.length (Shard_cluster.used_slots cluster ~group:0));

      Shard_cluster.crash_node cluster 0;
      Printf.printf "\nstorage node 0 is down, no replacement available.\n";

      (* Logical block 0 = stripe 0, data position 0 -> node 0: gone. *)
      (match Client.read_degraded client ~slot:0 ~i:0 with
      | Some b ->
        Printf.printf
          "degraded read of block 0: %c (decoded from %d survivors, no \
           locks, no recovery)\n"
          (Bytes.get b 0) (cfg.Config.n - 1)
      | None -> Printf.printf "degraded read failed\n");

      (* Health check shows the damage without touching anything. *)
      let h = Client.verify_slot client ~slot:0 in
      Printf.printf
        "stripe 0 health: %d/%d nodes live, %d consistent, healthy=%b\n"
        h.Client.sh_live cfg.Config.n h.Client.sh_consistent h.Client.sh_healthy;

      (* A spare arrives: remap, then scrub the whole volume. *)
      Shard_cluster.restart_node cluster 0;
      Printf.printf "\nreplacement node installed; scrubbing...\n";
      let report =
        Scrub.scrub client ~slots:(Shard_cluster.used_slots cluster ~group:0)
      in
      Format.printf "%a@." Scrub.pp_report report;

      (* Normal fast-path reads work again. *)
      let v = Volume.read volume 0 in
      Printf.printf "normal read of block 0 after scrub: %c\n" (Bytes.get v 0);
      let h = Client.verify_slot client ~slot:0 in
      Printf.printf "stripe 0 healthy again: %b\n" h.Client.sh_healthy);
  Shard_cluster.run cluster
