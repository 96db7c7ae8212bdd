(* Actor-per-node parallel environment.  See the mli for the model; the
   short version: node state is confined to its owning worker domain,
   everything that crosses a domain boundary goes through a mailbox or
   an atomic, and block payloads are deep-copied at the boundary. *)

open Effect
open Effect.Deep

(* One-shot reply cell.  The owner publishes the answer by swapping in
   [Done].  A caller with nothing left to run may spin on its cells
   first (see [block]), then parks on its domain's one waiter: holding
   the waiter's mutex it marks each cell [Parked] with a
   compare-and-set and re-checks the cells under it before every wait,
   so an owner that swaps out [Parked] must wait for that mutex to
   signal, which it gets only once the caller is inside
   [Condition.wait].  Either way the answer is seen: no lost wake-up. *)
type waiter = { wm : Mutex.t; wc : Condition.t }
type reply_state = Pending | Parked of waiter | Done of Transport.call_result
type reply = reply_state Atomic.t

type payload =
  | Rpc of Proto.request
  | Ctl of (unit -> unit)
      (* control action (remap/revive) executed by the owner domain,
         serialized with the node's request stream *)

type msg = { node : int; slot : int; caller : int; payload : payload; reply : reply }

type node_slot = {
  mutable store : Storage_node.t;  (* owner-domain confined *)
  alive : bool Atomic.t;
}

type worker = {
  mb : msg Par_mailbox.t;
  mutable dom : unit Domain.t option;  (* set once right after create *)
  dead : bool Atomic.t;  (* killed: serve [`Node_down] forever *)
}

type t = {
  cfg : Config.t;
  code : Rs_code.t;
  layout : Layout.t;
  nodes : node_slot array;
  wrk : worker array;
  fm : Mutex.t;
  failed_clients : (int, unit) Hashtbl.t;  (* under [fm] *)
  t0 : float;
  service_time : float;
  spin : bool;  (* callers and workers spin before parking *)
  shut : bool Atomic.t;
}

let owner t node = node mod Array.length t.wrk
let workers t = Array.length t.wrk
let spins t = t.spin
let now t = Unix.gettimeofday () -. t.t0

(* ------------------------------------------------------------------ *)
(* Boundary deep copies: wire semantics for every block payload.  The
   caller may recycle its buffers the moment [call] returns, and the
   node may alias its own state in responses; neither can then race the
   other domain. *)

let copy_entry (e : Proto.delta_entry) =
  { e with Proto.d_dv = Bytes.copy e.Proto.d_dv }

let copy_request = function
  | Proto.Swap { v; ntid } -> Proto.Swap { v = Bytes.copy v; ntid }
  | Proto.Add { dv; ntid; otid; epoch } ->
    Proto.Add { dv = Bytes.copy dv; ntid; otid; epoch }
  | Proto.Add_bcast { dv; dblk; ntid; otid; epoch } ->
    Proto.Add_bcast { dv = Bytes.copy dv; dblk; ntid; otid; epoch }
  | Proto.Reconstruct { cset; blk } ->
    Proto.Reconstruct { cset; blk = Bytes.copy blk }
  | Proto.Apply_delta { entries; absorbed; from_epoch; to_epoch } ->
    Proto.Apply_delta
      { entries = List.map copy_entry entries; absorbed; from_epoch; to_epoch }
  | req -> req

let copy_response = function
  | Proto.R_read { block; lmode } ->
    Proto.R_read { block = Option.map Bytes.copy block; lmode }
  | Proto.R_read_checked { block; meta; epoch; lmode } ->
    Proto.R_read_checked
      { block = Option.map Bytes.copy block; meta; epoch; lmode }
  | Proto.R_swap { block; epoch; otid; lmode } ->
    Proto.R_swap { block = Option.map Bytes.copy block; epoch; otid; lmode }
  | Proto.R_state sv ->
    Proto.R_state
      { sv with Proto.st_block = Option.map Bytes.copy sv.Proto.st_block }
  | Proto.R_delta { entries; to_epoch; complete } ->
    Proto.R_delta { entries = List.map copy_entry entries; to_epoch; complete }
  | r -> r

(* ------------------------------------------------------------------ *)

let answer reply r =
  match Atomic.exchange reply (Done r) with
  | Parked w -> Mutex.protect w.wm (fun () -> Condition.signal w.wc)
  | Pending | Done _ -> ()

let is_done reply = match Atomic.get reply with Done _ -> true | _ -> false

let result reply =
  match Atomic.get reply with Done r -> r | Pending | Parked _ -> assert false

let waiter =
  Domain.DLS.new_key (fun () ->
      { wm = Mutex.create (); wc = Condition.create () })

(* Park until one of [cells] is done.  A cell left [Parked] past this
   wait only costs its owner a signal nobody waits for. *)
let park cells =
  let w = Domain.DLS.get waiter in
  Mutex.protect w.wm (fun () ->
      List.iter
        (fun c -> ignore (Atomic.compare_and_set c Pending (Parked w)))
        cells;
      while not (List.exists is_done cells) do
        Condition.wait w.wc w.wm
      done)

(* ------------------------------------------------------------------ *)
(* [pfor] thunks are coroutines on the calling domain, the way the
   simulator runs them as fibers: a call whose reply cell is still
   empty performs [Await] and yields, and the caller's loop resumes
   whichever thunk's cell has filled.  [looping] marks a domain inside
   a loop; a call made outside one blocks on its cell. *)

type _ Effect.t +=
  | Await : reply -> Transport.call_result Effect.t
  | Sleep_until : float -> unit Effect.t
  | Fork : (unit -> unit) list -> unit Effect.t  (* nested pfor *)

(* Resumptions that can run, and those waiting for a reply cell or a
   wake-up time. *)
type loop = {
  ready : (unit -> unit) Queue.t;
  mutable cells : (reply * (unit -> unit)) list;
  mutable timers : (float * (unit -> unit)) list;
}

let looping = Domain.DLS.new_key (fun () -> ref false)

(* While a timer is pending and no cell has filled, the loop sleeps in
   slices this long: OCaml 5.1 has no timed [Condition.wait]. *)
let timer_slice = 100e-6

(* Queue [thunks] on [lp]; once the last finishes, [join] gets the
   first exception one raised. *)
let rec spawn lp thunks ~join =
  let left = ref (List.length thunks) and failed = ref None in
  let finish e =
    if Option.is_none !failed then failed := e;
    decr left;
    if !left = 0 then join !failed
  in
  let start f () = match_with f () (handler lp finish) in
  List.iter (fun f -> Queue.push (start f) lp.ready) thunks

and handler lp finish =
  {
    retc = (fun () -> finish None);
    exnc = (fun e -> finish (Some e));
    effc =
      (fun (type a) (e : a Effect.t) ->
        match e with
        | Await r ->
          Some
            (fun (k : (a, unit) continuation) ->
              lp.cells <- (r, fun () -> continue k (result r)) :: lp.cells)
        | Sleep_until at ->
          Some
            (fun (k : (a, unit) continuation) ->
              lp.timers <- (at, fun () -> continue k ()) :: lp.timers)
        | Fork thunks ->
          Some
            (fun (k : (a, unit) continuation) ->
              spawn lp thunks ~join:(fun failed ->
                  Queue.push
                    (fun () ->
                      match failed with
                      | None -> continue k ()
                      | Some e -> discontinue k e)
                    lp.ready))
        | _ -> None);
  }

(* Nothing can run: wait for a cell to fill, or for one timer slice
   while a timer is pending. *)
let block t lp =
  let any () = List.exists (fun (r, _) -> is_done r) lp.cells in
  if not (t.spin && Par_mailbox.spin_until any) then
    match lp.timers with
    | [] -> park (List.map fst lp.cells)
    | (at, _) :: rest ->
      let next = List.fold_left (fun m (a, _) -> Float.min m a) at rest in
      let dt = Float.min timer_slice (next -. Unix.gettimeofday ()) in
      if dt > 0. then Unix.sleepf dt

let wake t lp =
  let now = Unix.gettimeofday () in
  let due, timers = List.partition (fun (at, _) -> at <= now) lp.timers in
  let filled, cells = List.partition (fun (r, _) -> is_done r) lp.cells in
  lp.timers <- timers;
  lp.cells <- cells;
  List.iter (fun (_, f) -> Queue.push f lp.ready) due;
  List.iter (fun (_, f) -> Queue.push f lp.ready) filled;
  if due = [] && filled = [] then begin
    assert (cells <> [] || timers <> []);
    block t lp
  end

let run_loop t thunks =
  let lp = { ready = Queue.create (); cells = []; timers = [] } in
  let outcome = ref None in
  spawn lp thunks ~join:(fun failed -> outcome := Some failed);
  let on = Domain.DLS.get looping in
  on := true;
  Fun.protect
    ~finally:(fun () -> on := false)
    (fun () ->
      while Option.is_none !outcome do
        match Queue.take_opt lp.ready with Some f -> f () | None -> wake t lp
      done);
  Option.iter (Option.iter raise) !outcome

let await t reply =
  if !(Domain.DLS.get looping) then
    if is_done reply then result reply else perform (Await reply)
  else begin
    if not (t.spin && Par_mailbox.spin_until (fun () -> is_done reply)) then
      park [ reply ];
    result reply
  end

let pfor t = function
  | [] -> ()
  | [ f ] -> f ()
  | thunks ->
    if !(Domain.DLS.get looping) then perform (Fork thunks)
    else run_loop t thunks

let sleep d =
  if d > 0. then
    if !(Domain.DLS.get looping) then
      perform (Sleep_until (Unix.gettimeofday () +. d))
    else Unix.sleepf d

let kill_worker t w =
  Atomic.set t.wrk.(w).dead true;
  Array.iteri
    (fun i ns -> if owner t i = w then Atomic.set ns.alive false)
    t.nodes

let serve t me m =
  if Atomic.get me.dead then Error `Node_down
  else
    match m.payload with
    | Ctl f ->
      f ();
      Ok Proto.R_ack
    | Rpc req ->
      let ns = t.nodes.(m.node) in
      if not (Atomic.get ns.alive) then Error `Node_down
      else begin
        if t.service_time > 0. then Unix.sleepf t.service_time;
        Ok
          (copy_response
             (Storage_node.handle ns.store ~caller:m.caller ~slot:m.slot req))
      end

(* Owner-domain service loop: pops until the mailbox is closed AND
   drained, so a blocked caller always gets an answer — even from a
   killed worker (it answers [`Node_down]) or during shutdown.  A
   handler that raises fail-stops its worker the way [kill_worker]
   does: node state may be half-updated, so serving on would be
   unsound. *)
let worker_loop t w () =
  let me = t.wrk.(w) in
  let rec loop () =
    match Par_mailbox.pop me.mb with
    | None -> ()
    | Some m ->
      let r =
        try serve t me m
        with e ->
          Printf.eprintf
            "Par_env: worker %d fail-stopped: node %d raised %s\n%!" w m.node
            (Printexc.to_string e);
          kill_worker t w;
          Error `Node_down
      in
      answer m.reply r;
      loop ()
  in
  loop ()

let make_store t ~index ~init =
  Storage_node.create
    ~alpha_for:(Layout.alpha_oracle t.layout t.code ~node:index)
    ~client_failed:(fun id ->
      Mutex.protect t.fm (fun () -> Hashtbl.mem t.failed_clients id))
    ~h:(Config.h t.cfg)
    ~delta_log_cap:t.cfg.Config.repair.Config.delta_log_cap
    ~tombs_cap:t.cfg.Config.repair.Config.tombs_cap
    ~now:(fun () -> now t)
    ~block_size:t.cfg.Config.block_size ~init ()

(* A block-carrying request costs about 2–3 µs per KiB of block to
   copy in, serve and copy out (7–9 µs at 4 KiB, 130–200 µs at 64 KiB
   on a 2-vCPU Xeon guest), so above this size a spin rarely sees the
   answer: it only burns a core and parks anyway. *)
let spin_max_block = 16384

(* Spinning pays only while every domain of the environment, plus one
   caller, has a core to itself (on an oversubscribed host a spinning
   domain steals the core of the one it waits for), and only while a
   request can be answered within the budget.  Fixed per environment,
   so a run never switches between the two handoffs. *)
let spin_eligible ~workers ~cores ~block_size ~service_time =
  workers + 1 <= cores
  && block_size <= spin_max_block
  && service_time < Par_mailbox.spin_budget

let create ?(rotate = true) ?workers:(nw = -1) ?(pfor_workers = 0)
    ?(service_time = 0.) cfg =
  if pfor_workers <> 0 then invalid_arg "Par_env.create: pfor_workers <> 0";
  let n = cfg.Config.n in
  let nw =
    if nw >= 1 then nw
    else max 1 (min n (Domain.recommended_domain_count () - 1))
  in
  let nw = min nw n in
  let service_time = Float.max 0. service_time in
  let spin =
    spin_eligible ~workers:nw
      ~cores:(Domain.recommended_domain_count ())
      ~block_size:cfg.Config.block_size ~service_time
  in
  let code =
    Rs_code.create ~field:cfg.Config.field ~k:cfg.Config.k ~n:cfg.Config.n ()
  in
  let layout = Layout.create ~rotate ~k:cfg.Config.k ~n:cfg.Config.n () in
  let t =
    {
      cfg;
      code;
      layout;
      nodes = [||];
      wrk =
        Array.init nw (fun _ ->
            {
              mb = Par_mailbox.create ~spin ~capacity:64;
              dom = None;
              dead = Atomic.make false;
            });
      fm = Mutex.create ();
      failed_clients = Hashtbl.create 4;
      t0 = Unix.gettimeofday ();
      service_time;
      spin;
      shut = Atomic.make false;
    }
  in
  let t =
    {
      t with
      nodes =
        Array.init n (fun index ->
            {
              store = make_store t ~index ~init:`Zeroed;
              alive = Atomic.make true;
            });
    }
  in
  (* Stores exist before any worker runs, so confinement starts clean. *)
  Array.iteri
    (fun w wr -> wr.dom <- Some (Domain.spawn (worker_loop t w)))
    t.wrk;
  t

(* ------------------------------------------------------------------ *)

(* One blocking exchange with [node]'s owner.  [`Node_down] without
   enqueueing when the target is known dead — the same fast-fail shape
   the breaker expects from a fail-stop transport. *)
let exchange t ~node ~slot ~caller payload =
  let w = t.wrk.(owner t node) in
  let reply = Atomic.make Pending in
  if not (Par_mailbox.push w.mb { node; slot; caller; payload; reply }) then
    Error `Node_down
  else await t reply

let call_logical t ~id ~node ~slot req =
  let ns = t.nodes.(node) in
  if
    Atomic.get t.shut
    || (not (Atomic.get ns.alive))
    || Atomic.get t.wrk.(owner t node).dead
  then Error `Node_down
  else exchange t ~node ~slot ~caller:id (Rpc (copy_request req))

let transport t ~id : Transport.t =
  (module struct
    let client_id = id

    let call ?deadline:_ ~slot ~pos req =
      let node = Layout.node_of t.layout ~stripe:slot ~pos in
      call_logical t ~id ~node ~slot req

    let call_node ?deadline:_ ~node req = call_logical t ~id ~node ~slot:0 req
    let broadcast = None
    let pfor thunks = pfor t thunks
    let sleep = sleep
    let now () = now t

    (* Real arithmetic already costs real time; charging a modeled
       cost on top would double-count. *)
    let compute _ = ()
  end : Transport.S)

let make_client ?sink t ~id =
  Client.of_transport ?sink
    ~locate:(fun ~slot ~pos -> Layout.node_of t.layout ~stripe:slot ~pos)
    t.cfg t.code (transport t ~id)

(* ------------------------------------------------------------------ *)

let crash_node t i = Atomic.set t.nodes.(i).alive false

(* Control actions run on the owner so [store] stays domain-confined;
   caller -1 never collides with a client id. *)
let ctl t ~node f = ignore (exchange t ~node ~slot:0 ~caller:(-1) (Ctl f))

let remap_node t i =
  let ns = t.nodes.(i) in
  ctl t ~node:i (fun () ->
      ns.store <- make_store t ~index:i ~init:`Garbage;
      Atomic.set ns.alive true)

let revive_node t i =
  let ns = t.nodes.(i) in
  ctl t ~node:i (fun () ->
      if not (Atomic.get ns.alive) then begin
        ignore (Storage_node.quarantine_inflight ns.store);
        Atomic.set ns.alive true
      end)

let node_store t i = t.nodes.(i).store

let mark_client_failed t id =
  Mutex.protect t.fm (fun () -> Hashtbl.replace t.failed_clients id ())

let shutdown t =
  if not (Atomic.exchange t.shut true) then begin
    Array.iter (fun w -> Par_mailbox.close w.mb) t.wrk;
    Array.iter
      (fun w -> match w.dom with Some d -> Domain.join d | None -> ())
      t.wrk
  end
