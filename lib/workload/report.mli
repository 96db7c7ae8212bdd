(** Shared per-run reporting: the measured-run record, its one-line
    human-readable rendering, and a deterministic JSON writer.

    One home for per-run stats formatting — the figure benches, the CI
    smoke bench and the volume scaling bench all render through these
    helpers so their formats cannot drift apart. *)

(** What one measured run produced ([Vrunner.result.run]). *)
type run = {
  duration : float;  (** measured window, seconds *)
  clients : int;
  outstanding : int;  (** request fibers per client *)
  read_ops : int;
  write_ops : int;
  read_mbs : float;
  write_mbs : float;
  total_mbs : float;
  read_latency : float;  (** mean, seconds *)
  write_latency : float;  (** mean, seconds *)
  msgs : float;
  recoveries : float;
  rpc_retries : int;
  rpc_giveups : int;
  write_giveups : int;
  recovery_phases : (string * int) list;  (** nonzero phase counters *)
}

(** Unified failure/health accounting — one record and one JSON schema
    for every run. *)
type failures = {
  write_abandoned : int;  (** ambiguous swap timeouts *)
  write_stuck : int;  (** block ops, reads too, that drained a retry limit *)
  hedges : int;  (** hedged reads launched *)
  hedge_wins : int;  (** hedges whose degraded decode won the race *)
  fast_fails : int;  (** circuit-breaker fast-fails *)
  quarantines : int;  (** health transitions into Down *)
}

val no_failures : failures

val print_run : label:string -> run -> unit
(** The classic two-line run summary (second line only when retries,
    give-ups or recovery phases occurred). *)

(** Deterministic JSON: floats carry an explicit decimal count so the
    rendering is byte-stable for identical inputs. *)
type json =
  | J_int of int
  | J_float of float * int  (** value, decimals *)
  | J_bool of bool
  | J_str of string
  | J_raw of string  (** pre-rendered fragment, e.g. [Metrics.to_json] *)
  | J_obj of (string * json) list
  | J_arr of json list

val float_str : decimals:int -> float -> string
(** The fixed-precision float rendering used for [J_float]: [%.*f] with
    NaN/infinity normalized to [null] and negative zero to positive —
    so committed baselines diff byte-stably across compilers. *)

val to_string : json -> string
(** Rendered with two-space indentation and a trailing newline. *)

val write_file : string -> json -> unit

(** {1 Parsing} — the inverse of {!to_string}, for reading committed
    baselines back (the [ecstore compare] gate). *)

exception Parse_error of string

val of_string : string -> json
(** Parse standard JSON.  Numbers with a fraction part become [J_float]
    with the literal's decimal count (so re-rendering round-trips);
    [null] becomes [J_raw "null"].  @raise Parse_error on malformed
    input. *)

val read_file : string -> json

val member : string -> json -> json option
(** Object field lookup; [None] on missing field or non-object. *)

val to_float_opt : json option -> float option
(** Numeric coercion for [J_int]/[J_float]. *)

val run_fields : run -> (string * json) list
(** The standard per-run stats block (clients, ops, MB/s, latencies,
    msgs) embedded in every JSON summary. *)

val failure_fields : failures -> (string * json) list
(** The standard failure/health block — identical keys in every
    summary. *)

val scrub_fields : Scrub.report -> (string * json) list
(** The standard scrub/integrity block ({!Scrub.report} as JSON) —
    identical keys wherever a scrub outcome is reported. *)

val print_failures : label:string -> failures -> unit
(** One-line failure summary; silent when the record is all zero. *)
