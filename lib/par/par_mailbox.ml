type 'a t = {
  m : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  q : 'a Queue.t;
  capacity : int;
  count : int Atomic.t;  (* mirrors [Queue.length q]; written under [m] *)
  closed : bool Atomic.t;  (* written under [m] *)
  spin : bool;
}

let spin_budget = 50e-6

(* Reading the clock costs more than a [cpu_relax], so look at it only
   every 64 rounds; the budget overshoots by at most those rounds. *)
let spin_until ready =
  let deadline = Unix.gettimeofday () +. spin_budget in
  let rec go i =
    if ready () then true
    else if i land 63 = 0 && Unix.gettimeofday () >= deadline then false
    else begin
      Domain.cpu_relax ();
      go (i + 1)
    end
  in
  go 1

let create ~spin ~capacity =
  if capacity < 1 then invalid_arg "Par_mailbox.create: capacity < 1";
  {
    m = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    q = Queue.create ();
    capacity;
    count = Atomic.make 0;
    closed = Atomic.make false;
    spin;
  }

let push t x =
  Mutex.protect t.m @@ fun () ->
  let rec wait () =
    if Atomic.get t.closed then false
    else if Queue.length t.q >= t.capacity then begin
      Condition.wait t.not_full t.m;
      wait ()
    end
    else begin
      Queue.push x t.q;
      Atomic.incr t.count;
      Condition.signal t.not_empty;
      true
    end
  in
  wait ()

let pop t =
  (* The spin only decides when to take the lock: dequeueing and
     reporting "closed" stay on the locked path below.  It takes the
     lock with [try_lock], because a pusher still holds it for a moment
     after bumping [count], and a blocking [lock] would then sleep in
     the kernel and cost the very wake-up the spin is there to avoid. *)
  let ready () =
    (Atomic.get t.count > 0 || Atomic.get t.closed) && Mutex.try_lock t.m
  in
  if not (t.spin && spin_until ready) then Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) @@ fun () ->
  let rec wait () =
    match Queue.take_opt t.q with
    | Some x ->
      Atomic.decr t.count;
      Condition.signal t.not_full;
      Some x
    | None ->
      if Atomic.get t.closed then None
      else begin
        Condition.wait t.not_empty t.m;
        wait ()
      end
  in
  wait ()

let close t =
  Mutex.protect t.m @@ fun () ->
  if not (Atomic.get t.closed) then begin
    Atomic.set t.closed true;
    (* Wake every waiter: blocked pushers must fail, blocked poppers
       must drain-and-exit. *)
    Condition.broadcast t.not_empty;
    Condition.broadcast t.not_full
  end
