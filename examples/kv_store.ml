(* A small key-value store built on the Volume block API — the kind of
   "higher-level service requiring block storage" the paper targets
   (Sec 2).  Keys hash to block numbers; values are serialized into
   fixed-size blocks with a tiny header.  The KV layer is oblivious to
   erasure coding, node placement, and recovery.

   Run with:  dune exec examples/kv_store.exe *)

open Ecs_volume

module Kv = struct
  type t = { volume : Volume.t; buckets : int }

  let create volume ~buckets = { volume; buckets }

  let bucket_of t key = Hashtbl.hash key mod t.buckets

  (* Block format: 2-byte key length, 2-byte value length, key, value. *)
  let encode t ~key ~value =
    let size = Volume.block_size t.volume in
    if 4 + String.length key + String.length value > size then
      invalid_arg "Kv: entry too large";
    let b = Bytes.make size '\000' in
    Bytes.set_uint16_le b 0 (String.length key);
    Bytes.set_uint16_le b 2 (String.length value);
    Bytes.blit_string key 0 b 4 (String.length key);
    Bytes.blit_string value 0 b (4 + String.length key) (String.length value);
    b

  let decode b =
    let klen = Bytes.get_uint16_le b 0 and vlen = Bytes.get_uint16_le b 2 in
    if klen = 0 then None
    else
      Some
        ( Bytes.sub_string b 4 klen,
          Bytes.sub_string b (4 + klen) vlen )

  let put t key value =
    Volume.write t.volume (bucket_of t key) (encode t ~key ~value)

  let get t key =
    match decode (Volume.read t.volume (bucket_of t key)) with
    | Some (k, v) when k = key -> Some v
    | _ -> None
end

let () =
  let cfg =
    Config.make ~strategy:Config.Parallel ~t_p:1 ~block_size:1024 ~k:4 ~n:6 ()
  in
  let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
  let volume = Volume.create cluster ~id:0 in
  let kv = Kv.create volume ~buckets:128 in

  let pairs =
    [
      ("paper", "Using Erasure Codes Efficiently for Storage");
      ("venue", "DSN 2005");
      ("code", "4-of-6 Reed-Solomon over GF(2^8)");
      ("protocol", "swap/add, lock-free concurrent updates");
      ("recovery", "online, client-driven, three phases");
    ]
  in
  Shard_cluster.spawn cluster (fun () ->
      List.iter (fun (k, v) -> Kv.put kv k v) pairs;
      Printf.printf "stored %d entries\n" (List.length pairs);

      (* Survive a storage-node crash transparently. *)
      Shard_cluster.replace_node cluster 1;
      List.iter
        (fun (k, expect) ->
          match Kv.get kv k with
          | Some v when v = expect -> Printf.printf "  %-9s -> %s\n" k v
          | Some v -> Printf.printf "  %-9s -> CORRUPT (%s)\n" k v
          | None -> Printf.printf "  %-9s -> MISSING\n" k)
        pairs;
      match Kv.get kv "absent" with
      | None -> Printf.printf "  %-9s -> (not found, as expected)\n" "absent"
      | Some _ -> Printf.printf "  absent    -> UNEXPECTED HIT\n");
  Shard_cluster.run cluster;
  Printf.printf
    "done: KV layer never saw the crash (%.0f recoveries ran underneath)\n"
    (Stats.counter (Shard_cluster.stats cluster) "note.recovery.done")
