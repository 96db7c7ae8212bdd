(* Token bucket: the background scheduler's throttle on its RPCs and
   the per-tenant QoS meter, paced by the supplied (simulated) clock. *)

type t = {
  rate : float; (* tokens per simulated second *)
  cap : float; (* bucket capacity (burst) *)
  now : unit -> float;
  mutable tokens : float;
  mutable last : float;
}

let create ~rate ~cap ~now =
  if rate <= 0. then invalid_arg "Budget.create: need rate > 0";
  if cap <= 0. then invalid_arg "Budget.create: need cap > 0";
  { rate; cap; now; tokens = cap; last = now () }

let rate t = t.rate

let refill t =
  let now = t.now () in
  t.tokens <- min t.cap (t.tokens +. ((now -. t.last) *. t.rate));
  t.last <- now

let try_take t cost =
  if cost < 0. then invalid_arg "Budget.try_take: negative cost";
  refill t;
  if t.tokens >= cost then begin
    t.tokens <- t.tokens -. cost;
    true
  end
  else false

let take t cost =
  if cost < 0. then invalid_arg "Budget.take: negative cost";
  refill t;
  if t.tokens < cost then begin
    Fiber.sleep ((cost -. t.tokens) /. t.rate);
    refill t
  end;
  t.tokens <- t.tokens -. cost
