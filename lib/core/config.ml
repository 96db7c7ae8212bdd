type strategy = Serial | Parallel | Hybrid of int | Bcast

type cost_model = {
  delta_per_byte : float;
  add_per_byte : float;
  encode_per_byte : float;
  decode_per_byte : float;
}

(* Seconds per byte; roughly what the table-driven kernels of lib/gf
   achieve on current hardware (a few GB/s), same order as the paper's
   optimized C (Fig 8a: "all times are very small"). *)
let default_costs =
  {
    delta_per_byte = 1.0e-9;
    add_per_byte = 0.3e-9;
    encode_per_byte = 2.0e-9;
    decode_per_byte = 2.5e-9;
  }

type health = {
  timeout_floor : float;
  timeout_ceil : float;
  timeout_mult : float;
  suspect_score : float;
  down_score : float;
  decay_halflife : float;
  quarantine : float;
  probation_oks : int;
  hedge : bool;
  hedge_delay_mult : float;
}

(* timeout_ceil defaults to the simulator's fixed rpc_timeout, so a node
   with no latency history behaves exactly as before this layer existed;
   deadlines only tighten once real RTT samples come in. *)
let default_health =
  {
    timeout_floor = 120e-6;
    timeout_ceil = 1e-3;
    timeout_mult = 3.0;
    suspect_score = 2.0;
    down_score = 6.0;
    decay_halflife = 2e-3;
    quarantine = 2e-3;
    probation_oks = 3;
    hedge = true;
    hedge_delay_mult = 2.0;
  }

type integrity = {
  verified_reads : bool;
  cross_check : bool;
  digest_per_byte : float;
}

(* Verified reads are opt-in: the fast path gains a client-side digest
   over every block read, which real deployments enable per volume.
   [cross_check] governs the degraded-path dual-subset decode check;
   [digest_per_byte] is the client-side checksum compute cost the
   simulator charges: a modelled price of 1 ns/byte, not this build's
   digest speed (the word-at-a-time [Checksum.digest_bytes] runs several
   times faster), kept so simulated figures do not move with the host. *)
let default_integrity =
  { verified_reads = false; cross_check = true; digest_per_byte = 1.0e-9 }

type repair = {
  delta_repair : bool;
  delta_log_cap : int;
  tombs_cap : int;
  repair_floor : int option;
  repair_grace : float;
}

(* Delta-repair is on by default — it only engages for members that come
   back epoch-stale with a digest-valid block, and falls back to full
   Fig 6 reconstruction whenever eligibility cannot be proven.
   [delta_log_cap] bounds the per-slot raw-delta log (bytes of retained
   add payloads); [tombs_cap] bounds the per-slot set of GC-dropped tids
   kept for duplicate suppression.  [repair_floor = None] keeps the
   eager seed behavior (repair on any lost member); [Some f] defers node
   repair until a hosted group's live member count drops below [f].
   [repair_grace] is how long a Down node may stay silent before the
   supervisor gives up on a cheap return and fails it over. *)
let default_repair =
  {
    delta_repair = true;
    delta_log_cap = 64 * 1024;
    tombs_cap = 512;
    repair_floor = None;
    repair_grace = 0.;
  }

type t = {
  k : int;
  n : int;
  block_size : int;
  field : Field.choice;
  strategy : strategy;
  t_p : int;
  t_d : int;
  costs : cost_model;
  retry_delay : float;
  order_retry_limit : int;
  recovery_poll_delay : float;
  recovery_retry_limit : int;
  monitor_interval : float;
  stale_write_age : float;
  rpc_retry_limit : int;
  rpc_backoff : float;
  rpc_backoff_max : float;
  health : health;
  integrity : integrity;
  repair : repair;
}

let t_d_for strategy ~t_p ~p =
  let d =
    match strategy with
    | Serial | Bcast -> Resilience.d_serial ~t_p ~p
    | Parallel -> Resilience.d_parallel ~t_p ~p
    | Hybrid group -> Resilience.d_hybrid ~t_p ~p ~group
  in
  max 0 d

let strategy_to_string = function
  | Serial -> "serial"
  | Parallel -> "parallel"
  | Hybrid g -> Printf.sprintf "hybrid(%d)" g
  | Bcast -> "bcast"

let make ?(strategy = Parallel) ?(t_p = 1) ?(block_size = 1024)
    ?(field = `Gf8) ?(costs = default_costs) ?(retry_delay = 200e-6)
    ?(order_retry_limit = 8)
    ?(recovery_poll_delay = 200e-6) ?(recovery_retry_limit = 1000)
    ?(monitor_interval = 0.5) ?(stale_write_age = 0.1) ?(rpc_retry_limit = 8)
    ?(rpc_backoff = 300e-6) ?(rpc_backoff_max = 3e-3)
    ?(health = default_health) ?(integrity = default_integrity)
    ?(repair = default_repair) ~k ~n () =
  if k < 2 then invalid_arg "Config.make: need k >= 2 (Sec 4)";
  if n <= k then invalid_arg "Config.make: need n > k";
  if n - k > k then invalid_arg "Config.make: need n - k <= k (Sec 4)";
  if t_p < 0 then invalid_arg "Config.make: negative t_p";
  if block_size <= 0 then invalid_arg "Config.make: block_size";
  (* GF(2^h) symbols occupy h/8 little-endian bytes in a block. *)
  if block_size mod (Field.h_of field / 8) <> 0 then
    invalid_arg "Config.make: block_size not a multiple of the symbol size";
  if n > (match field with `Gf8 -> 255 | `Gf16 -> 65535) then
    invalid_arg "Config.make: n exceeds the field's code-width cap";
  (match strategy with
  | Hybrid g when g <= 0 -> invalid_arg "Config.make: hybrid group size"
  | _ -> ());
  if rpc_retry_limit < 0 then invalid_arg "Config.make: rpc_retry_limit";
  if rpc_backoff <= 0. || rpc_backoff_max < rpc_backoff then
    invalid_arg "Config.make: rpc backoff bounds";
  if health.timeout_floor <= 0. || health.timeout_ceil < health.timeout_floor
  then invalid_arg "Config.make: health timeout bounds";
  if health.timeout_mult < 1. then invalid_arg "Config.make: timeout_mult";
  if health.suspect_score <= 0. || health.down_score <= health.suspect_score
  then invalid_arg "Config.make: health score thresholds";
  if health.decay_halflife <= 0. then invalid_arg "Config.make: decay_halflife";
  if health.quarantine <= 0. then invalid_arg "Config.make: quarantine";
  if health.probation_oks < 1 then invalid_arg "Config.make: probation_oks";
  if health.hedge_delay_mult < 0. then
    invalid_arg "Config.make: hedge_delay_mult";
  if integrity.digest_per_byte < 0. then
    invalid_arg "Config.make: digest_per_byte";
  if repair.delta_log_cap < 0 then invalid_arg "Config.make: delta_log_cap";
  if repair.tombs_cap < 0 then invalid_arg "Config.make: tombs_cap";
  (match repair.repair_floor with
  | Some f when f < k + 1 || f > n ->
    invalid_arg "Config.make: repair_floor must be in [k+1, n]"
  | _ -> ());
  if repair.repair_grace < 0. then invalid_arg "Config.make: repair_grace";
  {
    k;
    n;
    block_size;
    field;
    strategy;
    t_p;
    t_d = t_d_for strategy ~t_p ~p:(n - k);
    costs;
    retry_delay;
    order_retry_limit;
    recovery_poll_delay;
    recovery_retry_limit;
    monitor_interval;
    stale_write_age;
    rpc_retry_limit;
    rpc_backoff;
    rpc_backoff_max;
    health;
    integrity;
    repair;
  }

let p t = t.n - t.k

(* Live-member floor below which a group's lost members must be rebuilt:
   eager (None) repairs on any loss, i.e. floor = n. *)
let effective_floor t =
  match t.repair.repair_floor with Some f -> f | None -> t.n
let h t = Field.h_of t.field
