(** Scrubber core (extension; complements the Sec 3.10 monitor).

    The monitor catches {e known} problem signatures — stale unfinished
    writes and INIT replacements.  The scrubber goes further, in two
    layers per stripe:

    + {b integrity} ({!Client.check_integrity}): every member re-digests
      its own block against its sealed record (metadata-only probe), and
      the members are cross-checked against the erasure code to catch
      rolled-back state whose record still matches;
    + {b structure} ({!Client.verify_slot}): the recentlist consistency
      test recovery itself uses.

    Anything off is repaired by the ordinary recovery procedure, which
    rebuilds quarantined members and restores full [t_p]/[t_d]
    resiliency.  Run it periodically — that is what {!Scrubber} (the
    budgeted background actor in [Ecs_volume]) does — or after a burst
    of failures. *)

type report = {
  scanned : int;  (** stripes examined *)
  healthy : int;  (** fully consistent and integrity-clean on all [n] *)
  repaired : int;  (** degraded stripes successfully recovered *)
  unrepaired : int;
      (** stripes still degraded after repair (beyond the failure
          envelope, or contended) *)
  corrupt_detected : int;
      (** members whose node-side digest self-check failed (bit rot,
          cross-epoch rollback) *)
  stale_detected : int;
      (** members the cross-member decode check flagged as
          plausible-but-wrong (same-record rollback) *)
  integrity_repaired : int;
      (** flagged members rebuilt by a successful repair *)
}

val empty : report

val merge : report -> report -> report
(** Fieldwise sum — reports from incremental sweeps compose. *)

val scrub_slot : Client.t -> slot:int -> report
(** Check (and repair as needed) one stripe; [scanned = 1].  The unit of
    work a budgeted background scrubber paces. *)

val scrub : Client.t -> slots:int list -> report
(** {!scrub_slot} over the (deduplicated) list.  Safe to run
    concurrently with reads, writes, other clients' recoveries, and
    other scrubbers — repair is the ordinary recovery procedure, which
    backs off when contended. *)

val pp_report : Format.formatter -> report -> unit
