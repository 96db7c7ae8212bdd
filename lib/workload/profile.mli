(** Workload generation: fio-style profiles over block size
    distribution, read/write mix, Zipf skew and arrival model.  Every
    workload of the paper experiments (Sections 6.2 and 6.6) and of the
    profile benches is a profile, run by {!Vrunner.run_profile}.

    A profile describes {e offered load}, not a measurement loop: the
    six built-in profiles mirror the classic fio scenario set
    (sequential-rw, random-rw, mixed-70-30, db-oltp, app-server,
    data-pipeline), and {!closed} builds the single-block closed-loop
    profiles of the figure benches.  Closed-loop profiles keep a fixed
    number of outstanding requests per tenant (the classic benchmark
    loop, which under faults masks tail latency behind head-of-line
    blocking); open-loop profiles draw seeded Poisson arrivals at a
    fixed rate with bounded in-flight admission, so latency-under-load
    and shed traffic become visible.

    All sampling is driven by a seeded [Random.State], so a profile
    generator replays byte-identically for a fixed seed. *)

type op = Op_read | Op_write

(** How requests arrive. *)
type arrival =
  | Closed of { outstanding : int }
      (** [outstanding] request fibers per tenant, each issuing the next
          request as soon as the previous one completes. *)
  | Open of { rate : float; max_inflight : int }
      (** Poisson arrivals at [rate] requests per simulated second; an
          arrival finding [max_inflight] requests already in flight is
          shed (counted as a drop), never queued. *)

type t = {
  name : string;
  description : string;
  sizes : (int * float) list;
      (** request-size distribution: (size in blocks, weight) *)
  write_frac : float;
      (** fraction of requests that are writes, in [\[0, 1\]] *)
  theta : float option;
      (** Zipf skew of the block popularity ([None] = uniform), in
          [(0, 1)]: the classic approximation
          [P(rank <= x) = (x/N)^(1-theta)]; larger [theta] concentrates
          more traffic on fewer blocks (hot-spot model), and hot ranks
          are hash-scattered across the block space *)
  sequential : bool;
      (** sequential address pattern from block 0, wrapping to 0 when
          the next request would pass the last block (overrides skew) *)
  arrival : arrival;
}

(** One sampled request: [size] consecutive blocks starting at [block]
    ([block + size <= blocks] always holds). *)
type request = { op : op; block : int; size : int }

val all : t list
(** The six built-in profiles, in a fixed order. *)

val closed :
  ?theta:float ->
  ?sequential:bool ->
  outstanding:int ->
  write_frac:float ->
  unit ->
  t
(** A single-block, closed-loop profile named ["closed"]: uniform
    random blocks (default), Zipf-skewed ones with [theta], or a
    sequential scan.  With [write_frac] 0 or 1 no op is drawn. *)

val names : string list

val find : string -> t option

val max_size : t -> int
(** Largest request size (blocks) the profile can draw. *)

(** {1 Sampling} *)

type gen

val generator : t -> seed:int -> blocks:int -> gen
(** A seeded request stream over logical blocks [0 .. blocks-1].
    @raise Invalid_argument if [blocks] is smaller than the profile's
    largest request size, [write_frac] is outside [\[0, 1\]] or
    [theta] outside [(0, 1)]. *)

val next : gen -> request
(** Draws, in order: the size (only from more than one size), the op
    (only when [0 < write_frac < 1]), then the start block. *)

val next_gap : gen -> float
(** Next Poisson inter-arrival gap (seconds), for open-loop profiles.
    @raise Invalid_argument on a closed-loop profile. *)

val zipf_mass : theta:float -> frac:float -> float
(** Analytic share of traffic carried by the hottest [frac] of blocks
    under the sampled Zipf approximation: [frac ** (1 - theta)].  The
    yardstick the skew tests measure against. *)
