(** Token-bucket ops budget.

    {!Background} prices every storage-node RPC it issues against one
    bucket, so all background work together stays inside one rate;
    {!Vrunner.run_profile} meters tenants with the same bucket.  All
    pacing is driven by the supplied clock (the simulated one), so
    seeded runs stay deterministic. *)

type t

val create : rate:float -> cap:float -> now:(unit -> float) -> t
(** Bucket refilling at [rate] tokens per second up to [cap], starting
    full.  @raise Invalid_argument unless both are positive. *)

val rate : t -> float

val take : t -> float -> unit
(** Block (fiber-sleep) until [cost] tokens are available, then spend
    them.  @raise Invalid_argument on negative cost. *)

val try_take : t -> float -> bool
(** Non-blocking variant: spend [cost] tokens and return [true] if they
    are available right now, else leave the bucket untouched and return
    [false].  Never fiber-sleeps, so it is safe outside a fiber — the
    lever for shed-instead-of-wait admission (per-tenant QoS metering).
    @raise Invalid_argument on negative cost. *)
