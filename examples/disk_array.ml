(* The paper's concluding vision (Sec 7): "an industrial-strength
   distributed disk array with cheap adapters to connect disks to a
   network, powerful machines to serve as the array nodes... External
   parties send requests for logical blocks to the array nodes; array
   nodes act as 'clients' in our protocol, while the cheap adapters act
   as 'storage nodes'."

   This example builds that topology: two front-end array nodes expose a
   logical block service to external requesters; each array node is an
   AJX protocol client over the same 5 thin storage adapters, so the
   array survives both adapter crashes and an array-node crash (any
   array node can serve any block — there is no owner). *)

(* A front-end array node: accepts logical block requests and executes
   them through its protocol client. *)

open Ecs_volume

module Array_node = struct
  type t = { name : string; volume : Volume.t; mutable served : int }

  let create cluster ~name ~id =
    { name; volume = Volume.create cluster ~id; served = 0 }

  let handle_read t l =
    t.served <- t.served + 1;
    Volume.read t.volume l

  let handle_write t l v =
    t.served <- t.served + 1;
    Volume.write t.volume l v
end

let () =
  let cfg =
    Config.make ~strategy:Config.Parallel ~t_p:1 ~block_size:1024 ~k:3 ~n:5 ()
  in
  let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
  let a1 = Array_node.create cluster ~name:"array-1" ~id:1 in
  let a2 = Array_node.create cluster ~name:"array-2" ~id:2 in
  Printf.printf
    "disk array: 2 array nodes fronting 5 thin adapters (3-of-5 code)\n\n";

  (* External parties hash their requests across array nodes. *)
  let route l = if l mod 2 = 0 then a1 else a2 in
  Shard_cluster.spawn cluster (fun () ->
      (* A burst of external writes, spread over both array nodes. *)
      for l = 0 to 29 do
        Array_node.handle_write (route l) l
          (Bytes.make 1024 (Char.chr (65 + (l mod 26))))
      done;
      Printf.printf "30 logical blocks written (%s served %d, %s served %d)\n"
        a1.Array_node.name a1.Array_node.served a2.Array_node.name
        a2.Array_node.served;

      (* An adapter dies; reads keep flowing through either array node. *)
      Shard_cluster.replace_node cluster 3;
      Printf.printf "\nadapter 3 crashed; reading everything back anyway:\n";
      let ok = ref 0 in
      for l = 0 to 29 do
        let v = Array_node.handle_read (route l) l in
        if Bytes.get v 0 = Char.chr (65 + (l mod 26)) then incr ok
      done;
      Printf.printf "%d/30 blocks correct after adapter crash\n" !ok;

      (* An array NODE dies mid-write; the paper's t_p budget covers it:
         the other array node repairs via the monitor and takes over its
         traffic. *)
      Printf.printf "\narray-1 crashes mid-write...\n");
  Shard_cluster.run cluster;

  Shard_cluster.spawn cluster (fun () ->
      try Array_node.handle_write a1 0 (Bytes.make 1024 '!')
      with Shard_cluster.Client_crashed _ -> ());
  Engine.schedule (Shard_cluster.engine cluster)
    ~at:(Shard_cluster.now cluster +. 100e-6)
    (fun () -> Shard_cluster.crash_client cluster 1);
  Shard_cluster.run cluster;

  Shard_cluster.spawn cluster (fun () ->
      Fiber.sleep 0.2;
      Volume.monitor_once a2.Array_node.volume ~group:0;
      (* array-2 now serves everything. *)
      let ok = ref 0 in
      for l = 0 to 29 do
        let v = Array_node.handle_read a2 l in
        let c = Bytes.get v 0 in
        if c = Char.chr (65 + (l mod 26)) || c = '!' then incr ok
      done;
      Printf.printf
        "array-2 repaired the partial write and serves all traffic: %d/30 \
         blocks consistent\n"
        !ok);
  Shard_cluster.run cluster;
  Printf.printf "\n%.0f recoveries ran; %.0f messages total\n"
    (Stats.counter (Shard_cluster.stats cluster) "note.recovery.done")
    (Stats.counter (Shard_cluster.stats cluster) "msgs")
