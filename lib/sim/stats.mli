(** Measurement plumbing: the network's named counters.

    One [Stats.t] is shared by a whole simulated cluster; the RPC layer
    counts messages and bytes into it (the per-message costs Fig 1 and
    Sections 6.2-6.3 report), and the harness counts injected faults and
    protocol notes.  Latencies live in {!Metrics}. *)

type t

val create : unit -> t

val incr : t -> string -> unit
(** Add 1 to a named counter (created on first use). *)

val add : t -> string -> float -> unit
(** Add an amount to a named counter. *)

val counter : t -> string -> float
(** Current value of a counter (0 if never touched). *)

val counters : t -> (string * float) list
(** All counters, sorted by name. *)

val reset : t -> unit

val snapshot : t -> t
(** Independent copy (for before/after deltas). *)
