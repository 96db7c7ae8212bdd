(** In-process, simulator-free protocol environment.

    Implements {!Transport.S} straight over [n] local {!Storage_node.t}
    instances: calls execute immediately, [pfor] is sequential, [sleep]
    advances a synthetic clock.  No concurrency, no failures-in-flight —
    this exists to (a) prove the client protocol is genuinely
    transport-agnostic (the sim cluster and this module go through the
    same signature) and (b) let library users embed the protocol over
    their own transport by imitating this module.

    Crash injection is still available ([crash_node] / [remap_node]):
    calls to a crashed node return [`Node_down] until it is remapped to
    a fresh INIT instance, so single-threaded recovery paths are
    exercisable without the simulator. *)

type t

val create : ?rotate:bool -> Config.t -> t

val transport : t -> id:int -> Transport.t
(** A transport for client [id] over this environment's nodes. *)

val make_client : ?sink:Trace.sink -> t -> id:int -> Client.t
(** Client over {!transport}; [sink] taps the structured trace stream
    (tests assert on event sequences through it). *)

val crash_node : t -> int -> unit
val remap_node : t -> int -> unit

val revive_node : t -> int -> unit
(** Un-crash node [i] {e keeping its state} — the crash-recovery rejoin
    (vs {!remap_node}'s disk-lost replacement).  Runs
    {!Storage_node.quarantine_inflight} on the kept store; the node
    rejoins as an epoch-stale delta-repair target.  No-op if alive. *)

val node_store : t -> int -> Storage_node.t
(** Current storage state behind logical node [i] (white-box checks). *)

val now : t -> float
(** The synthetic clock (advanced by [sleep] and by a small tick per
    call). *)

val mark_client_failed : t -> int -> unit
(** Make the failure detector report the client as crashed (lock
    expiry paths). *)
