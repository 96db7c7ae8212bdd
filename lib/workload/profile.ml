(* Workload profiles: block-size distribution, read/write mix, Zipf
   skew and arrival model, sampled from a seeded RNG.

   The six built-ins mirror the classic fio scenario set; [closed]
   builds the single-block closed-loop profiles of the figure benches.
   Request sizes are in blocks (the volume's block_size is the unit); a
   request covers [size] consecutive logical blocks so sequential
   streams and large transfers exercise the batch fan-out path rather
   than a single stripe. *)

type op = Op_read | Op_write

type arrival =
  | Closed of { outstanding : int }
  | Open of { rate : float; max_inflight : int }

type t = {
  name : string;
  description : string;
  sizes : (int * float) list;
  write_frac : float;
  theta : float option;
  sequential : bool;
  arrival : arrival;
}

type request = { op : op; block : int; size : int }

(* Open-loop rates are sized for the profile bench's simulated testbed
   (storage-node-bound cost model, 4 KB blocks): high enough to push the
   volume into visible queueing at G = 1, low enough that G = 4 still
   clears the offered load. *)
let all =
  [
    {
      name = "sequential-rw";
      description = "large sequential transfers, 50/50 read/write";
      sizes = [ (8, 1.0) ];
      write_frac = 0.5;
      theta = None;
      sequential = true;
      arrival = Closed { outstanding = 8 };
    };
    {
      name = "random-rw";
      description = "single-block uniform random, 50/50 read/write";
      sizes = [ (1, 1.0) ];
      write_frac = 0.5;
      theta = None;
      sequential = false;
      arrival = Closed { outstanding = 8 };
    };
    {
      name = "mixed-70-30";
      description = "single-block uniform random, 70% reads";
      sizes = [ (1, 1.0) ];
      write_frac = 0.3;
      theta = None;
      sequential = false;
      arrival = Closed { outstanding = 8 };
    };
    {
      name = "db-oltp";
      description = "hot-row OLTP: zipf 0.8, 70% reads, 1-4 block rows";
      sizes = [ (1, 0.7); (4, 0.3) ];
      write_frac = 0.3;
      theta = Some 0.8;
      sequential = false;
      arrival = Open { rate = 3000.; max_inflight = 64 };
    };
    {
      name = "app-server";
      description = "session store: zipf 0.6, 80% reads, small objects";
      sizes = [ (1, 0.6); (2, 0.4) ];
      write_frac = 0.2;
      theta = Some 0.6;
      sequential = false;
      arrival = Open { rate = 2000.; max_inflight = 32 };
    };
    {
      name = "data-pipeline";
      description = "bulk ingest: sequential 8-block writes, 20% readback";
      sizes = [ (8, 1.0) ];
      write_frac = 0.8;
      theta = None;
      sequential = true;
      arrival = Open { rate = 300.; max_inflight = 16 };
    };
  ]

let closed ?theta ?(sequential = false) ~outstanding ~write_frac () =
  {
    name = "closed";
    description = "single-block closed loop";
    sizes = [ (1, 1.0) ];
    write_frac;
    theta;
    sequential;
    arrival = Closed { outstanding };
  }

let names = List.map (fun p -> p.name) all

let find name = List.find_opt (fun p -> p.name = name) all

let max_size p = List.fold_left (fun m (s, _) -> max m s) 1 p.sizes

let zipf_mass ~theta ~frac = frac ** (1. -. theta)

(* ------------------------------------------------------------------ *)
(* Sampling. *)

type gen = {
  profile : t;
  blocks : int;
  rng : Random.State.t;
  cum : (float * int) list; (* cumulative weight -> size *)
  mutable cursor : int; (* sequential stream position *)
}

let generator p ~seed ~blocks =
  if blocks < max_size p then invalid_arg "Profile.generator: blocks";
  if p.sizes = [] then invalid_arg "Profile.generator: empty sizes";
  if not (p.write_frac >= 0. && p.write_frac <= 1.) then
    invalid_arg "Profile.generator: write_frac";
  (match p.theta with
  | Some theta when not (theta > 0. && theta < 1.) ->
    invalid_arg "Profile.generator: theta"
  | _ -> ());
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. p.sizes in
  let _, cum =
    List.fold_left
      (fun (acc, rows) (s, w) ->
        let acc = acc +. (w /. total) in
        (acc, (acc, s) :: rows))
      (0., []) p.sizes
  in
  {
    profile = p;
    blocks;
    rng = Random.State.make [| seed |];
    cum = List.rev cum;
    cursor = 0;
  }

(* A single size is drawn without touching the RNG. *)
let sample_size g =
  match g.cum with
  | [ (_, s) ] -> s
  | cum ->
    let u = Random.State.float g.rng 1.0 in
    let rec pick = function
      | [] -> assert false
      | [ (_, s) ] -> s
      | (c, s) :: rest -> if u <= c then s else pick rest
    in
    pick cum

(* Start block for a [size]-block request, honouring the address
   pattern; always leaves [start + size <= blocks]. *)
let sample_start g size =
  let p = g.profile in
  let span = g.blocks - size in
  if p.sequential then begin
    if g.cursor + size > g.blocks then g.cursor <- 0;
    let start = g.cursor in
    g.cursor <- g.cursor + size;
    start
  end
  else
    match p.theta with
    | None -> Random.State.int g.rng (span + 1)
    | Some theta ->
      (* Inverse-CDF sampling of the classic Zipf-like approximation
         P(rank <= x) = (x/N)^(1-theta) (Gray et al.): skewed toward low
         ranks; rank r is then scattered over the block space by a fixed
         multiplicative hash so hot blocks are not all in one stripe,
         clamped to leave room for [size]. *)
      let u = Random.State.float g.rng 1.0 in
      let rank =
        int_of_float (float_of_int g.blocks *. (u ** (1. /. (1. -. theta))))
      in
      let rank = min (g.blocks - 1) rank in
      min span (rank * 2654435761 land max_int mod g.blocks)

(* Draw order: size, op, start block; the op is drawn only for a mix. *)
let next g =
  let size = sample_size g in
  let op =
    match g.profile.write_frac with
    | w when w <= 0. -> Op_read
    | w when w >= 1. -> Op_write
    | w -> if Random.State.float g.rng 1.0 < w then Op_write else Op_read
  in
  let block = sample_start g size in
  { op; block; size }

let next_gap g =
  match g.profile.arrival with
  | Closed _ -> invalid_arg "Profile.next_gap: closed-loop profile"
  | Open { rate; _ } ->
    let u = Random.State.float g.rng 1.0 in
    -.log (1. -. u) /. rate
