(* Fig 1: protocol comparison table in failure-free executions — AJX
   (parallel / broadcast / serial) vs FAB-style vs GWGR-style.

   Each column is *measured* from instrumented runs of one client doing
   isolated writes and reads on a k-of-n cluster: messages per
   operation, client bytes per operation (in units of B = block size),
   and operation latency (to show round trips: one LAN round trip is
   ~125 us at 1KB). *)

open Ecs_volume

let k = 3
let n = 5
let block_size = 1024
let ops = 20

type row = {
  label : string;
  granularity : string;
  write_msgs : float;
  read_msgs : float;
  write_bytes : float; (* client bytes per write, in blocks *)
  read_bytes : float;
  write_lat : float;
  read_lat : float;
}

(* Measure an AJX variant. *)
let ajx_row label strategy =
  let cfg = Config.make ~strategy ~t_p:1 ~block_size ~k ~n () in
  let cluster = Shard_cluster.create ~remap_policy:`Auto cfg in
  let stats = Shard_cluster.stats cluster in
  let client = Shard_cluster.make_group_client cluster ~id:0 ~group:0 in
  let src_bytes () =
    (* Client node traffic. *)
    let env_node = () in
    ignore env_node;
    Stats.counter stats "bytes"
  in
  ignore src_bytes;
  let wl = ref 0. and rl = ref 0. in
  let m0 = ref 0. and b0 = ref 0. in
  let wmsgs = ref 0. and wbytes = ref 0. in
  Shard_cluster.spawn cluster (fun () ->
      m0 := Stats.counter stats "msgs";
      b0 := Stats.counter stats "bytes";
      let t0 = Fiber.now () in
      for op = 0 to ops - 1 do
        Client.write client ~slot:op ~i:0 (Bytes.make block_size 'w')
      done;
      wl := (Fiber.now () -. t0) /. float_of_int ops;
      wmsgs := (Stats.counter stats "msgs" -. !m0) /. float_of_int ops;
      wbytes := (Stats.counter stats "bytes" -. !b0) /. float_of_int ops;
      let m1 = Stats.counter stats "msgs" and b1 = Stats.counter stats "bytes" in
      let t1 = Fiber.now () in
      for op = 0 to ops - 1 do
        ignore (Client.read client ~slot:op ~i:0)
      done;
      rl := (Fiber.now () -. t1) /. float_of_int ops;
      m0 := (Stats.counter stats "msgs" -. m1) /. float_of_int ops;
      b0 := (Stats.counter stats "bytes" -. b1) /. float_of_int ops);
  Shard_cluster.run cluster;
  {
    label;
    granularity = "1 block";
    write_msgs = !wmsgs;
    read_msgs = !m0;
    write_bytes = !wbytes /. float_of_int block_size;
    read_bytes = !b0 /. float_of_int block_size;
    write_lat = !wl;
    read_lat = !rl;
  }

let baseline_row label ~make =
  let engine = Engine.create () in
  let stats = Stats.create () in
  let net = Net.create engine stats in
  let write, read, granularity = make engine net in
  let wl = ref 0. and rl = ref 0. in
  let wmsgs = ref 0. and wbytes = ref 0. in
  let rmsgs = ref 0. and rbytes = ref 0. in
  Fiber.spawn engine (fun () ->
      let m0 = Stats.counter stats "msgs" and b0 = Stats.counter stats "bytes" in
      let t0 = Fiber.now () in
      for op = 0 to ops - 1 do
        write op
      done;
      wl := (Fiber.now () -. t0) /. float_of_int ops;
      wmsgs := (Stats.counter stats "msgs" -. m0) /. float_of_int ops;
      wbytes := (Stats.counter stats "bytes" -. b0) /. float_of_int ops;
      let m1 = Stats.counter stats "msgs" and b1 = Stats.counter stats "bytes" in
      let t1 = Fiber.now () in
      for op = 0 to ops - 1 do
        read op
      done;
      rl := (Fiber.now () -. t1) /. float_of_int ops;
      rmsgs := (Stats.counter stats "msgs" -. m1) /. float_of_int ops;
      rbytes := (Stats.counter stats "bytes" -. b1) /. float_of_int ops);
  Engine.run engine;
  {
    label;
    granularity;
    write_msgs = !wmsgs;
    read_msgs = !rmsgs;
    write_bytes = !wbytes /. float_of_int block_size;
    read_bytes = !rbytes /. float_of_int block_size;
    write_lat = !wl;
    read_lat = !rl;
  }

let fab_row () =
  baseline_row "FAB-style" ~make:(fun engine net ->
      let fab = Fab.create engine net ~k ~n ~block_size ~log_depth:4 in
      let c = Fab.make_client fab ~id:0 in
      ( (fun op -> Fab.write c ~slot:op ~i:0 (Bytes.make block_size 'w')),
        (fun op -> ignore (Fab.read c ~slot:op ~i:0)),
        "1 block" ))

let gwgr_row () =
  baseline_row "GWGR-style" ~make:(fun engine net ->
      let g = Gwgr.create engine net ~k ~n ~block_size ~log_depth:4 in
      let c = Gwgr.make_client g ~id:0 in
      ( (fun op ->
          Gwgr.write_stripe c ~slot:op
            (Array.init k (fun _ -> Bytes.make block_size 'w'))),
        (fun op -> ignore (Gwgr.read_stripe c ~slot:op)),
        Printf.sprintf "%d blocks" k ))

let run () =
  Bench_util.section
    (Printf.sprintf
       "Fig 1: protocol comparison, failure-free, %d-of-%d code (p = %d), \
        B = %d bytes"
       k n (n - k) block_size);
  let rows =
    [
      ajx_row "AJX-par" Config.Parallel;
      ajx_row "AJX-bcast" Config.Bcast;
      ajx_row "AJX-ser" Config.Serial;
      fab_row ();
      gwgr_row ();
    ]
  in
  Table.print
    ~title:
      "measured per-operation costs (paper Fig 1 claims: AJX-par w=2(p+1) \
       msgs/(p+2)B, AJX-bcast w=p+3 msgs/3B, FAB w=4n msgs, GWGR w=2n \
       msgs/nB; reads 2 msgs/B except GWGR 2n msgs/nB)"
    ~header:
      [ "protocol"; "granularity"; "write msgs"; "read msgs"; "write bytes";
        "read bytes"; "write lat"; "read lat" ]
    (List.map
       (fun r ->
         [
           r.label;
           r.granularity;
           Printf.sprintf "%.1f" r.write_msgs;
           Printf.sprintf "%.1f" r.read_msgs;
           Printf.sprintf "%.2f B" r.write_bytes;
           Printf.sprintf "%.2f B" r.read_bytes;
           Printf.sprintf "%.0f us" (1e6 *. r.write_lat);
           Printf.sprintf "%.0f us" (1e6 *. r.read_lat);
         ])
       rows)
