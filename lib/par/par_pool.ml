type batch = {
  thunks : (unit -> unit) array;
  next : int Atomic.t;  (* next unclaimed index *)
  bm : Mutex.t;
  bc : Condition.t;
  mutable finished : int;  (* completed thunks, under [bm] *)
  mutable first_exn : exn option;  (* first failure, under [bm] *)
}

type t = {
  jobs : batch Par_mailbox.t;
  domains : unit Domain.t array;
  stopped : bool Atomic.t;
}

(* Claim-and-run until the batch has no unclaimed indices left.  Run by
   pool workers and by the submitting caller alike. *)
let drain b =
  let n = Array.length b.thunks in
  let rec loop () =
    let idx = Atomic.fetch_and_add b.next 1 in
    if idx < n then begin
      let r = try Ok (b.thunks.(idx) ()) with e -> Error e in
      Mutex.protect b.bm (fun () ->
          (match r with
          | Ok () -> ()
          | Error e -> if b.first_exn = None then b.first_exn <- Some e);
          b.finished <- b.finished + 1;
          if b.finished = n then Condition.broadcast b.bc);
      loop ()
    end
  in
  loop ()

let worker jobs () =
  let rec loop () =
    match Par_mailbox.pop jobs with
    | None -> ()
    | Some b ->
      drain b;
      loop ()
  in
  loop ()

let create ~workers =
  if workers < 0 then invalid_arg "Par_pool.create: negative workers";
  (* Capacity is only backpressure between submitters and idle workers;
     callers drain their own batches, so a small bound suffices. *)
  let jobs =
    Par_mailbox.create ~spin:false ~capacity:(max 1 (4 * max 1 workers))
  in
  {
    jobs;
    domains = Array.init workers (fun _ -> Domain.spawn (worker jobs));
    stopped = Atomic.make false;
  }

let run t thunks =
  if Atomic.get t.stopped then invalid_arg "Par_pool.run: pool shut down";
  match thunks with
  | [] -> ()
  | [ f ] -> f ()
  | _ ->
    let b =
      {
        thunks = Array.of_list thunks;
        next = Atomic.make 0;
        bm = Mutex.create ();
        bc = Condition.create ();
        finished = 0;
        first_exn = None;
      }
    in
    let n = Array.length b.thunks in
    (* Offer the batch to idle workers (push once per worker, capped at
       the batch size; surplus pops find it drained and move on), then
       help drain it ourselves — which also covers a closed queue. *)
    let offers = min (Array.length t.domains) (n - 1) in
    (try
       for _ = 1 to offers do
         ignore (Par_mailbox.push t.jobs b)
       done
     with _ -> ());
    drain b;
    let exn =
      Mutex.protect b.bm (fun () ->
          while b.finished < n do
            Condition.wait b.bc b.bm
          done;
          b.first_exn)
    in
    (match exn with Some e -> raise e | None -> ())

let shutdown t =
  if not (Atomic.exchange t.stopped true) then begin
    Par_mailbox.close t.jobs;
    Array.iter Domain.join t.domains
  end
