type state = Healthy | Suspect | Down | Probation

let state_to_string = function
  | Healthy -> "healthy"
  | Suspect -> "suspect"
  | Down -> "down"
  | Probation -> "probation"

type transition = { node : int; from_ : state; to_ : state; at : float }

type node_h = {
  mutable st : state;
  mutable score : float;
  mutable score_at : float; (* clock of the last score decay *)
  mutable rtt_avg : float;
  mutable rtt_peak : float;
  mutable samples : int;
  mutable down_since : float;
  mutable trial_at : float; (* Down: when the breaker half-opens *)
  mutable probation_oks : int;
  mutable quarantines : int;
}

type hook = transition -> unit

type t = {
  p : Config.health;
  nodes : node_h array;
  mutable hooks : hook list;
}

let create (cfg : Config.t) =
  let node () =
    {
      st = Healthy;
      score = 0.;
      score_at = 0.;
      rtt_avg = 0.;
      rtt_peak = 0.;
      samples = 0;
      down_since = 0.;
      trial_at = 0.;
      probation_oks = 0;
      quarantines = 0;
    }
  in
  {
    p = cfg.Config.health;
    nodes = Array.init cfg.Config.n (fun _ -> node ());
    hooks = [];
  }

let on_transition t hook = t.hooks <- hook :: t.hooks
let n t = Array.length t.nodes

let nh t node =
  if node < 0 || node >= Array.length t.nodes then
    invalid_arg "Health: node out of range";
  t.nodes.(node)

let state t ~node = (nh t node).st
let score t ~node = (nh t node).score
let rtt_avg t ~node = (nh t node).rtt_avg
let rtt_peak t ~node = (nh t node).rtt_peak
let quarantines t ~node = (nh t node).quarantines

let goto t h ~node ~now to_ =
  let from_ = h.st in
  h.st <- to_;
  let tr = { node; from_; to_; at = now } in
  List.iter (fun hook -> hook tr) (List.rev t.hooks);
  Some tr

(* Exponential decay of the suspicion score over idle simulated time:
   the accrual analogue of phi-style detectors, but driven entirely by
   the deterministic clock. *)
let decay t h ~now =
  let dt = now -. h.score_at in
  if dt > 0. then begin
    h.score <- h.score *. Float.exp (-.Float.log 2. *. dt /. t.p.decay_halflife);
    h.score_at <- now
  end

(* p99 proxy: a decayed peak pulled toward the EWMA, so one ancient
   outlier does not pin the deadline at the ceiling forever. *)
let observe_rtt h rtt =
  if h.samples = 0 then begin
    h.rtt_avg <- rtt;
    h.rtt_peak <- rtt
  end
  else begin
    h.rtt_avg <- (0.8 *. h.rtt_avg) +. (0.2 *. rtt);
    h.rtt_peak <- Float.max rtt ((0.9 *. h.rtt_peak) +. (0.1 *. h.rtt_avg))
  end;
  h.samples <- h.samples + 1

let clamp lo hi v = Float.min hi (Float.max lo v)

let deadline t ~node =
  let h = nh t node in
  if h.samples = 0 then t.p.timeout_ceil
  else
    clamp t.p.timeout_floor t.p.timeout_ceil
      (t.p.timeout_mult *. Float.max h.rtt_peak h.rtt_avg)

let hedge_delay t ~node =
  let h = nh t node in
  if h.samples = 0 then t.p.timeout_floor
  else
    clamp t.p.timeout_floor t.p.timeout_ceil
      (t.p.hedge_delay_mult *. Float.max h.rtt_peak h.rtt_avg)

let enter_down t h ~node ~now =
  h.down_since <- now;
  h.trial_at <- now +. t.p.quarantine;
  h.probation_oks <- 0;
  h.quarantines <- h.quarantines + 1;
  goto t h ~node ~now Down

let observe_ok t ~now ~node ~rtt =
  let h = nh t node in
  decay t h ~now;
  observe_rtt h rtt;
  h.score <- h.score *. 0.5;
  match h.st with
  | Healthy -> None
  | Suspect ->
    if h.score < t.p.suspect_score then goto t h ~node ~now Healthy else None
  | Probation ->
    h.probation_oks <- h.probation_oks + 1;
    if h.probation_oks >= t.p.probation_oks then begin
      h.score <- 0.;
      goto t h ~node ~now Healthy
    end
    else None
  | Down ->
    (* A pass-through op (recovery, probe) succeeded against a node the
       breaker still holds Down: hard evidence it is back — start the
       probation trial right away instead of waiting out the
       quarantine. *)
    h.probation_oks <- 1;
    goto t h ~node ~now Probation

let observe_timeout t ~now ~node =
  let h = nh t node in
  decay t h ~now;
  h.score <- h.score +. 1.;
  match h.st with
  | Healthy when h.score >= t.p.down_score -> enter_down t h ~node ~now
  | Healthy when h.score >= t.p.suspect_score -> goto t h ~node ~now Suspect
  | Suspect when h.score >= t.p.down_score -> enter_down t h ~node ~now
  | Probation -> enter_down t h ~node ~now
  | Healthy | Suspect | Down -> None

let observe_down t ~now ~node =
  let h = nh t node in
  decay t h ~now;
  h.score <- Float.max h.score t.p.down_score;
  match h.st with Down -> None | _ -> enter_down t h ~node ~now

let fast_fail t ~now ~node =
  let h = nh t node in
  match h.st with
  | Down when now < h.trial_at -> (true, None)
  | Down ->
    (* Quarantine over: half-open the breaker and let this call through
       as the probation trial. *)
    h.probation_oks <- 0;
    (false, goto t h ~node ~now Probation)
  | Healthy | Suspect | Probation -> (false, None)
