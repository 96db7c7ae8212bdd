type node_slot = {
  mutable store : Storage_node.t;
  mutable alive : bool;
  mutable generation : int;
}

type t = {
  cfg : Config.t;
  code : Rs_code.t;
  layout : Layout.t;
  nodes : node_slot array;
  failed_clients : (int, unit) Hashtbl.t;
  mutable clock : float;
}

(* Every call ticks the clock a little so recentlist timestamps are
   strictly ordered and retry loops always advance time. *)
let tick = 1e-6

let create ?(rotate = true) cfg =
  let code =
    Rs_code.create ~field:cfg.Config.field ~k:cfg.Config.k ~n:cfg.Config.n ()
  in
  let layout = Layout.create ~rotate ~k:cfg.Config.k ~n:cfg.Config.n () in
  let failed_clients = Hashtbl.create 4 in
  let t =
    {
      cfg;
      code;
      layout;
      nodes = [||];
      failed_clients;
      clock = 0.;
    }
  in
  let make_store ~index ~init =
    Storage_node.create
      ~alpha_for:(Layout.alpha_oracle layout code ~node:index)
      ~client_failed:(Hashtbl.mem failed_clients)
      ~h:(Config.h cfg)
      ~delta_log_cap:cfg.Config.repair.Config.delta_log_cap
      ~tombs_cap:cfg.Config.repair.Config.tombs_cap
      ~now:(fun () -> t.clock)
      ~block_size:cfg.Config.block_size ~init ()
  in
  let nodes =
    Array.init cfg.Config.n (fun index ->
        { store = make_store ~index ~init:`Zeroed; alive = true; generation = 0 })
  in
  (* [nodes] is immutable in [t]; rebuild the record with it. *)
  let t = { t with nodes } in
  t

let now t = t.clock

let crash_node t i = t.nodes.(i).alive <- false

let remap_node t i =
  let n = t.nodes.(i) in
  n.generation <- n.generation + 1;
  n.alive <- true;
  n.store <-
    Storage_node.create
      ~alpha_for:(Layout.alpha_oracle t.layout t.code ~node:i)
      ~client_failed:(Hashtbl.mem t.failed_clients)
      ~h:(Config.h t.cfg)
      ~delta_log_cap:t.cfg.Config.repair.Config.delta_log_cap
      ~tombs_cap:t.cfg.Config.repair.Config.tombs_cap
      ~now:(fun () -> t.clock)
      ~block_size:t.cfg.Config.block_size ~init:`Garbage ()

let revive_node t i =
  let n = t.nodes.(i) in
  if not n.alive then begin
    n.generation <- n.generation + 1;
    n.alive <- true;
    ignore (Storage_node.quarantine_inflight n.store)
  end

let node_store t i = t.nodes.(i).store

let mark_client_failed t id = Hashtbl.replace t.failed_clients id ()

let transport t ~id : Transport.t =
  let call_logical ~node ~slot req =
    t.clock <- t.clock +. tick;
    let ns = t.nodes.(node) in
    if not ns.alive then Error `Node_down
    else Ok (Storage_node.handle ns.store ~caller:id ~slot req)
  in
  (module struct
    let client_id = id

    let call ?deadline:_ ~slot ~pos req =
      let node = Layout.node_of t.layout ~stripe:slot ~pos in
      call_logical ~node ~slot req

    let call_node ?deadline:_ ~node req = call_logical ~node ~slot:0 req
    let broadcast = None
    let pfor thunks = List.iter (fun f -> f ()) thunks
    let sleep d = t.clock <- t.clock +. Float.max d tick
    let now () = t.clock
    let compute _ = t.clock <- t.clock +. tick
  end : Transport.S)

let make_client ?sink t ~id =
  Client.of_transport ?sink
    ~locate:(fun ~slot ~pos -> Layout.node_of t.layout ~stripe:slot ~pos)
    t.cfg t.code (transport t ~id)
