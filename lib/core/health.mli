(** Per-node failure detector: the one place the client stack keeps an
    opinion about which storage nodes are alive and how fast they are.

    One instance lives in each {!Session} and tracks, per logical member
    node of the stripe group:

    - a {b state machine} [Healthy -> Suspect -> Down -> Probation ->
      Healthy], driven purely by call outcomes observed by the session
      (no background prober);
    - an {b accrual suspicion score} over the simulated clock: each
      timeout adds 1, each success halves it, and it decays
      exponentially with half-life [Config.health.decay_halflife] while
      the node is idle.  Crossing [suspect_score] turns the node
      Suspect, crossing [down_score] (or any fail-stop [`Node_down]
      evidence) turns it Down;
    - {b latency tracking}: an EWMA and a decayed peak of successful
      RTTs.  The peak acts as a p99 proxy and feeds the {b adaptive
      per-node deadline} [clamp(floor, ceil, mult x max(peak, avg))]
      that replaces the transport's fixed [rpc_timeout], plus the hedge
      delay used by {!Read_path};
    - a {b circuit breaker}: while a node is Down and its quarantine has
      not elapsed, {!fast_fail} tells the session to answer
      [`Node_down] without touching the network.  After the quarantine
      the breaker half-opens (state Probation) and real calls act as
      probes; [probation_oks] consecutive successes readmit the node.

    Determinism: all inputs come from the deterministic transport clock
    and call outcomes, so a seeded run replays identical health
    histories.  Transition {!hook}s fire synchronously inside the
    observation call; they must not call back into the protocol stack
    (enqueue and return — see {!Supervisor}).

    {b Domain safety.}  The detector takes no lock: it is owned by one
    client, and every transport runs that client's [pfor] thunks on the
    client's own domain (the parallel transport as coroutines), so
    observations never race. *)

type state = Healthy | Suspect | Down | Probation

val state_to_string : state -> string
(** Lowercase name, as rendered in {!Trace.Health_transition}. *)

(** One state-machine edge, stamped with the transport clock. *)
type transition = { node : int; from_ : state; to_ : state; at : float }

type hook = transition -> unit

type t

val create : Config.t -> t
(** A detector for the [n] member nodes of [cfg], all initially
    Healthy with no latency history (deadline = [timeout_ceil]). *)

val on_transition : t -> hook -> unit
(** Register a hook called on every state transition, in registration
    order, after the state has changed. *)

val n : t -> int

val state : t -> node:int -> state
val score : t -> node:int -> float
val rtt_avg : t -> node:int -> float
val rtt_peak : t -> node:int -> float

val quarantines : t -> node:int -> int
(** How many times [node] has entered Down. *)

val deadline : t -> node:int -> float
(** Adaptive per-call deadline for [node]:
    [clamp(timeout_floor, timeout_ceil, timeout_mult x p99proxy)], or
    [timeout_ceil] with no samples yet. *)

val hedge_delay : t -> node:int -> float
(** How long a hedged read waits for the primary before launching the
    degraded-path hedge ([hedge_delay_mult x p99proxy], same clamp). *)

val observe_ok : t -> now:float -> node:int -> rtt:float -> transition option
(** A call to [node] succeeded after [rtt] seconds.  Halves the score,
    feeds the latency tracker, and may readmit the node (Suspect ->
    Healthy once the score decays; Probation -> Healthy after
    [probation_oks] successes; Down -> Probation immediately, since a
    pass-through success is hard up-evidence). *)

val observe_timeout : t -> now:float -> node:int -> transition option
(** A call to [node] timed out.  Adds 1 to the score and may demote the
    node (Suspect at [suspect_score], Down at [down_score]; a timeout
    during Probation re-trips the breaker immediately). *)

val observe_down : t -> now:float -> node:int -> transition option
(** The transport reported fail-stop [`Node_down]: go Down at once. *)

val fast_fail : t -> now:float -> node:int -> bool * transition option
(** Circuit-breaker check before a fast-path call.  [true] while [node]
    is Down inside its quarantine window (caller should answer
    [`Node_down] without a network round trip).  Once the quarantine
    elapses the breaker half-opens — the node moves to Probation, the
    returned transition reports it, and the call proceeds as a trial. *)
