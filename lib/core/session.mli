(** Session layer: the one place RPC retry policy lives.

    A session wraps a {!Transport.t} with per-RPC bounded exponential
    backoff, idempotent resend on timeouts, node-liveness
    classification, trace-context allocation and event emission.  The
    protocol layers above ({!Write_path}, {!Read_path}, {!Recovery},
    {!Gc}) never touch the transport directly.

    What this layer owes its users:

    - {!call} / {!call_node} transparently resend a timed-out request up
      to [Config.rpc_retry_limit] times under exponential backoff
      ([rpc_backoff] doubling to [rpc_backoff_max]), emitting
      {!Trace.Rpc_retry} per resend.  This is sound because every
      protocol message is idempotent at the storage node (adds and swaps
      deduplicated by tid, lock/GC/recovery ops absolute state writes —
      see DESIGN.md's fault-model section).  A call whose whole budget
      drains emits {!Trace.Rpc_give_up} and returns [Error `Timeout]:
      {e the caller} decides what an exhausted budget means
      (the write path's swap disambiguation, skip-for-now elsewhere).
    - [Error `Node_down] is returned immediately (fail-stop is reliably
      detected; resending is pointless).
    - {!new_ctx} allocates client-unique operation ids;
      {!with_op} brackets a top-level operation with
      {!Trace.Op_begin} / {!Trace.Op_end} (latency from the transport
      clock, failure recorded if the operation raises).

    The protocol-level failure exceptions live here so every layer above
    can raise them without depending on the facade. *)

exception Data_loss of string
(** Recovery could not assemble [k] consistent blocks: the failure
    bounds of Sec 4 were exceeded. *)

exception Stuck of string
(** A retry limit was exhausted — the system is outside its configured
    operating envelope (e.g. a dead node that is never remapped). *)

exception Write_abandoned of string
(** A write gave up because its [swap] drained the whole retry budget on
    a live-but-lossy link (see {!Client.Write_abandoned}). *)

type t

val create :
  cfg:Config.t ->
  sink:Trace.sink ->
  locate:(slot:int -> pos:int -> int) ->
  Transport.t ->
  t
(** [locate ~slot ~pos] maps a stripe position of a slot to the logical
    member node serving it (e.g. {!Layout.node_of} under rotation), so
    the failure detector is keyed by node even when positions rotate
    across stripes, and the GC sends each node its own share. *)

val cfg : t -> Config.t
val client_id : t -> int

val health : t -> Health.t
(** The session's per-node failure detector.  Every {!call} /
    {!call_node} attempt feeds it: successes report RTTs, timeouts bump
    the suspicion score, [`Node_down] trips it, and the resulting
    adaptive per-node deadline bounds each attempt's loss detection.
    {!call} additionally consults its circuit breaker: a fast-path
    request (read / swap / add) to a node that is Down and still inside
    its quarantine window is answered [Error `Node_down] without a
    network round trip (emitting {!Trace.Breaker_fast_fail}), pushing
    callers onto their degraded paths at once.  Control-plane requests
    (locks, recovery, GC, probes) always pass through, both so recovery
    never sees synthesized failures and so the breaker half-opens from
    real traffic.  State transitions are emitted as
    {!Trace.Health_transition} against the active context. *)

val node_of : t -> slot:int -> pos:int -> int
(** The [locate] function the session was built with. *)

val new_ctx : t -> ?parent:Trace.ctx -> Trace.op_kind -> slot:int -> Trace.ctx
(** Allocate a fresh per-client operation id. *)

val emit : t -> Trace.ctx -> Trace.event -> unit

val with_op : t -> Trace.ctx -> (unit -> 'a) -> 'a
(** [with_op t ctx f] emits [Op_begin], runs [f], and emits [Op_end]
    with the elapsed transport-clock time — [ok = false] (and a re-raise)
    if [f] raises. *)

val call :
  t -> Trace.ctx -> slot:int -> pos:int -> Proto.request -> Transport.call_result
(** Slot-addressed RPC with retry/backoff as described above. *)

val call_node : t -> Trace.ctx -> node:int -> Proto.request -> Transport.call_result
(** Node-addressed RPC (probes) with the same retry policy. *)

val broadcast :
  t ->
  (slot:int -> poss:int list -> Proto.request -> (int * Transport.call_result) list)
  option
(** The transport's one-send/many-receive, if it has one.  Broadcast
    sends are {e not} retried as a batch; the write path re-dispatches
    unsatisfied positions itself. *)

val pfor : t -> (unit -> unit) list -> unit
val sleep : t -> float -> unit
val now : t -> float

val compute : t -> float -> unit
(** Charge erasure-code arithmetic to the environment's cost model. *)

val block_cost : t -> float -> float
(** [block_cost t per_byte] is [per_byte * block_size] seconds. *)
