(** Bounded blocking FIFO queue between domains (mutex + condvars, with
    an optional spin before parking).

    The parallel environment's actor mailboxes: senders [push] from any
    domain and block while the queue is at capacity; the owning worker
    [pop]s and blocks while it is empty.  FIFO order is global over the
    queue, so messages from one sender are delivered in the order it
    pushed them (per-sender FIFO — the property the protocol's resend
    logic relies on).

    A {e spinning} mailbox's [pop] first busy-waits up to
    {!spin_budget} on an atomic element count and an atomic closed
    flag, so a message that arrives within the budget is taken without
    a futex wake-up.  The spin only decides when to take the lock:
    dequeueing and deciding "closed" happen under the mutex on both
    kinds, so spinning changes latency, never semantics.

    [close] wakes everyone: pending and future [push]es return [false]
    (the message was not enqueued) and [pop] drains what remains, then
    returns [None] forever.  All operations are safe from any domain. *)

type 'a t

val spin_budget : float
(** Seconds a spinning waiter busy-waits before it parks (50 µs). *)

val spin_until : (unit -> bool) -> bool
(** [spin_until ready] polls [ready] with [Domain.cpu_relax] between
    polls until it holds ([true]) or {!spin_budget} has passed
    ([false]).  The bounded busy-wait shared by spinning mailboxes and
    the parallel environment's reply cells. *)

val create : spin:bool -> capacity:int -> 'a t
(** [spin] makes [pop] spin before it parks.  Worth it only when the
    popping domain has a core of its own; otherwise it steals time from
    the domain it waits for.
    @raise Invalid_argument if [capacity < 1]. *)

val push : 'a t -> 'a -> bool
(** Enqueue, blocking while full.  [false] iff the queue was (or became,
    while waiting) closed — the element was not enqueued. *)

val pop : 'a t -> 'a option
(** Dequeue, blocking while empty.  [None] iff the queue is closed and
    fully drained. *)

val close : 'a t -> unit
(** Idempotent. *)
