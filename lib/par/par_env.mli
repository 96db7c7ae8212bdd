(** Real-multicore protocol environment: OCaml 5 domains behind
    {!Transport.S}.

    Where {!Direct_env} executes calls immediately on the caller and
    the simulator interleaves fibers on one domain, this environment
    runs the storage side on {e worker domains} with true parallelism
    and a wall clock:

    - each storage node is an {b actor} owned by exactly one worker
      domain (node [i] belongs to worker [i mod workers]); every
      request for a node is executed by its owner, so node state needs
      no locks and per-node serialization is structural;
    - workers multiplex their nodes over one bounded {!Par_mailbox}
      each; mailbox FIFO gives per-sender ordering, and the blocking
      RPC shape of {!Transport.S.call} is a one-shot reply cell (see
      {e Handoff} below);
    - block-carrying payloads are {b deep-copied at the actor
      boundary}, both directions — wire semantics — so the client
      stack's buffer recycling ({!Buf_pool}) and the node's internal
      aliasing never cross domains;
    - [pfor] runs its thunks as coroutines on the calling domain (see
      {e Coroutine pfor}); [sleep]/[now] are the wall clock; [compute]
      is a no-op — real arithmetic already costs real time;
    - calls never time out: in-process delivery is loss-free, so the
      only failure is fail-stop [`Node_down] (crashed node, killed
      worker, or shut-down environment).  [deadline] is ignored.

    Determinism is {e not} promised here — that is the simulator's
    job.  This environment exists to run the identical protocol stack
    on real hardware ([bench parallel]) and to stress its domain
    safety ([test_par]).

    [service_time > 0] models device latency: the owning worker sleeps
    that long before executing each request, which makes closed-loop
    throughput scale with client concurrency even on few cores (the
    latency-bound regime real storage lives in).

    {b Handoff.}  Every RPC crosses domains twice: the request into the
    owner's mailbox, the answer back through the reply cell.  Parking
    both sides on condvars costs two futex wake-ups of an idle core
    per call, far more than a small request's service.  So both sides
    {e spin, then park}: an idle worker polls its mailbox's atomic
    element count, and a caller polls its reply cell (one [Atomic.t]),
    each for {!Par_mailbox.spin_budget} (50 µs) before parking on a
    condvar.  The owner publishes the answer by swapping it into the
    cell.  A caller whose spin ran out takes its domain's waiter (one
    mutex and condvar per domain), marks the cell parked with a
    compare-and-set while holding the mutex, and re-checks the cell
    under it before every wait; an owner
    that finds the cell parked signals under that mutex, so the signal
    either finds the caller waiting or the caller finds the answer —
    no lost wake-up.

    Spinning is on only when {!spin_eligible} holds at [create]: every
    worker and one caller have a core each, and a request can be
    answered within the budget (blocks of at most {!spin_max_block}
    bytes, a [service_time] below the budget).  Otherwise both sides
    park at once: spinning through a long request (a 64 KiB add) only
    burns a core.  The choice is fixed for the environment's lifetime
    ({!spins}); it never depends on how long earlier answers took.

    {b Coroutine pfor.}  Inside [pfor], a call whose reply cell is
    empty yields (an effect); the caller's loop resumes whichever
    thunk's cell has filled, and when none has it spins (where {!spins}
    holds), then parks on the domain's waiter, which every pending cell
    names.  [sleep] in a thunk is a timer on the loop, polled in 100 µs
    slices.  A nested [pfor] joins the same loop.  The first exception
    a thunk raises is re-raised once every thunk of that [pfor] has
    finished.  Calls and sleeps outside any [pfor] block. *)

type t

val create :
  ?rotate:bool ->
  ?workers:int ->
  ?pfor_workers:int ->
  ?service_time:float ->
  Config.t ->
  t
(** [workers] storage-actor domains (default
    [max 1 (min n (recommended_domain_count () - 1))]); [service_time]
    in seconds (default [0]).  [pfor_workers] must be [0] (its
    default): [pfor] needs no helper domains.
    @raise Invalid_argument for any other [pfor_workers]. *)

val spin_max_block : int
(** The largest block size, in bytes, whose requests spin (16 KiB). *)

val spin_eligible :
  workers:int -> cores:int -> block_size:int -> service_time:float -> bool
(** [workers + 1 <= cores && block_size <= spin_max_block &&
    service_time < Par_mailbox.spin_budget]: the handoff spins only
    when the storage workers and one caller all fit the host's [cores]
    (as [Domain.recommended_domain_count] reports them) and a request
    can be answered within the spin budget. *)

val spins : t -> bool
(** Whether this environment's handoff spins: {!spin_eligible} of its
    worker count, the host's cores, its block size and its
    service time, decided at [create]. *)

val transport : t -> id:int -> Transport.t
(** A transport for client [id].  Safe to create and use from any
    domain; one client value must still be driven by one domain at a
    time (clients are not themselves thread-safe — spawn one per
    domain, as [bench parallel] does). *)

val make_client : ?sink:Trace.sink -> t -> id:int -> Client.t
(** Client over {!transport}.  A [sink] shared between clients on
    different domains must itself be domain-safe ({!Metrics.sink}
    is). *)

val crash_node : t -> int -> unit
(** Fail-stop node [i]: subsequent calls return [`Node_down].
    Immediate (an atomic flag) — requests already queued behind it are
    answered [`Node_down] by the owner when dequeued. *)

val remap_node : t -> int -> unit
(** Replace node [i] with a fresh INIT instance and revive it.  Runs on
    the owner domain (serialized with the node's request stream);
    returns once applied. *)

val revive_node : t -> int -> unit
(** Un-crash node [i] keeping its state (crash-recovery rejoin):
    quarantines in-flight writes, rejoins epoch-stale.  No-op if
    alive. *)

val kill_worker : t -> int -> unit
(** Crash worker domain [w]: every node it owns becomes [`Node_down]
    at once, queued and future messages are answered [`Node_down].
    The domain itself parks (still draining) until {!shutdown} so no
    caller is ever left blocked on a reply.  Irreversible. *)

val workers : t -> int

val owner : t -> int -> int
(** [owner t node] is the index of the worker domain owning [node]. *)

val node_store : t -> int -> Storage_node.t
(** White-box access to node [i]'s current store.  Only meaningful
    while the environment is quiescent (no in-flight calls): the store
    belongs to its owner domain. *)

val now : t -> float
(** Wall-clock seconds since [create]. *)

val mark_client_failed : t -> int -> unit
(** Make the nodes' failure detector report the client as crashed
    (lock expiry paths).  Takes effect on subsequent requests. *)

val shutdown : t -> unit
(** Close every mailbox, join every worker domain.
    Idempotent.  Calls racing a shutdown get [`Node_down].  After
    shutdown the environment leaks no domains ([test_par] proves this
    by cycling more environments than the runtime's domain limit). *)
