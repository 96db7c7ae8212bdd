(* Helpers shared by the suites that drive the protocol over a
   single-group simulated cluster (a Shard_cluster with its default
   placement): white-box access to storage members, and a driver that
   runs one fiber to completion. *)

module Shard_cluster = Ecs_volume.Shard_cluster
module Volume = Ecs_volume.Volume

(* Storage member [node] of the cluster's single group. *)
let member cluster node =
  Directory.lookup (Shard_cluster.group_directory cluster 0) node

let block_of cluster c =
  Bytes.make (Shard_cluster.config cluster).Config.block_size c

(* Verify that stripe [slot] at the storage nodes satisfies the erasure
   code (direct white-box check). *)
let stripe_consistent cluster ~slot =
  let cfg = Shard_cluster.config cluster in
  let layout = Shard_cluster.group_layout cluster 0 in
  let blocks =
    Array.init cfg.Config.n (fun pos ->
        let node = Layout.node_of layout ~stripe:slot ~pos in
        let entry = member cluster node in
        Bytes.copy (Storage_node.peek_block entry.Directory.store ~slot))
  in
  Rs_code.verify_stripe (Shard_cluster.code cluster) blocks

let run_to_completion cluster f =
  let result = ref None in
  Shard_cluster.spawn cluster (fun () -> result := Some (f ()));
  Shard_cluster.run cluster;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "fiber did not complete"
