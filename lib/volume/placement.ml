(* CRUSH-style placement of stripe groups over an elastic,
   topology-aware pool.

   Selection is weighted rendezvous ("straw") hashing: node [p]'s
   priority for group [g] is [log u / w] where [u] is a uniform hash of
   [(seed, g, p)] and [w] the node's weight — the classic trick that
   makes the winner of each draw land on a node with probability
   proportional to its weight.  A group takes the [n] best priorities
   subject to distinct failure domains at the configured level (a
   partition-matroid constraint, so the greedy scan is optimal and —
   crucially — exchange-stable: adding or removing one node perturbs
   the chosen basis by at most one element per group).

   That stability is the whole point: a node join or drain moves only
   the members whose slot the new node actually wins (or the lost node
   actually held), so rebalance traffic is proportional to the capacity
   change, never to the pool size.  {!plan} computes exactly that diff
   without mutating; {!Background} applies it move by move through
   {!reassign} + directory remap + Fig 6 rebuild.

   Everything is a pure function of [(seed, groups, n, topology)]; the
   volume benchmarks' byte-deterministic output relies on it.

   Logical blocks stripe round-robin across groups: block [l] lives in
   group [l mod groups] at group-local block [l / groups], so a batch
   of consecutive blocks spreads over every group — the source of the
   volume's aggregate-bandwidth scaling. *)

type move = { mv_group : int; mv_index : int; mv_src : int; mv_dst : int }

module type S = sig
  type t

  val groups : t -> int
  val nodes_per_group : t -> int
  val pool : t -> int
  val seed : t -> int
  val level : t -> Topology.level
  val topology : t -> Topology.t
  val group_nodes : t -> int -> int array
  val member : t -> group:int -> index:int -> int
  val locate : t -> int -> int * int
  val logical : t -> group:int -> block:int -> int
  val loads : t -> int array
  val reassign : t -> group:int -> index:int -> node:int -> unit
  val groups_on : t -> int -> int list
  val members_on : t -> int -> (int * int) list
  val violates : t -> group:int -> index:int -> node:int -> bool
  val plan : t -> move list
  val max_load_imbalance : t -> int
end

type t = {
  groups : int;
  nodes_per_group : int;
  seed : int;
  level : Topology.level;
  topo : Topology.t;
  members : int array array; (* members.(g) = pool indices, length n *)
  mutable loads : int array; (* loads.(p) = members hosted by p; grows *)
  rev : (int, (int * int) list) Hashtbl.t; (* node -> (group, index) *)
}

(* ------------------------------------------------------------------ *)
(* Deterministic straw scores: splitmix64 over (seed, group, node),
   independent of OCaml's Hashtbl/Random so the layout is identical on
   every platform and OCaml version. *)

let splitmix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let two_pow_53 = 9007199254740992.0

let straw ~seed ~group ~node ~weight =
  if weight <= 0. then neg_infinity
  else begin
    let h =
      splitmix64
        (Int64.logxor
           (splitmix64
              (Int64.logxor (splitmix64 (Int64.of_int seed)) (Int64.of_int group)))
           (Int64.of_int node))
    in
    (* u in (0,1): 53 hash bits, offset so u is never exactly 0. *)
    let u = (Int64.to_float (Int64.shift_right_logical h 11) +. 0.5) /. two_pow_53 in
    log u /. weight (* in (-inf, 0); larger is better *)
  end

(* Top-n nodes by straw score, greedily skipping any node whose failure
   domain at [level] is already taken — returned in selection-rank
   order.  May return fewer than n when the pool is too degraded. *)
let select ~seed ~level ~n topo ~group =
  let m = Topology.size topo in
  let score =
    Array.init m (fun p ->
        straw ~seed ~group ~node:p ~weight:(Topology.weight topo p))
  in
  let order = Array.init m (fun p -> p) in
  Array.sort
    (fun a b ->
      match compare score.(b) score.(a) with 0 -> compare a b | c -> c)
    order;
  let used = Hashtbl.create (2 * n) in
  let chosen = ref [] in
  let count = ref 0 in
  let i = ref 0 in
  while !count < n && !i < m do
    let p = order.(!i) in
    if score.(p) > neg_infinity then begin
      let d = Topology.domain topo ~node:p ~level in
      if not (Hashtbl.mem used d) then begin
        Hashtbl.add used d ();
        chosen := p :: !chosen;
        incr count
      end
    end;
    incr i
  done;
  List.rev !chosen

(* ------------------------------------------------------------------ *)

let groups t = t.groups
let nodes_per_group t = t.nodes_per_group
let pool t = Topology.size t.topo
let seed t = t.seed
let level t = t.level
let topology t = t.topo

(* The pool can outgrow the loads array (Topology.add_node): grow it
   lazily wherever a per-node count is read or written. *)
let ensure_pool t =
  let m = Topology.size t.topo in
  if m > Array.length t.loads then begin
    let bigger = Array.make (max m (2 * Array.length t.loads)) 0 in
    Array.blit t.loads 0 bigger 0 (Array.length t.loads);
    t.loads <- bigger
  end

let rev_add t ~node ~group ~index =
  let cur = try Hashtbl.find t.rev node with Not_found -> [] in
  Hashtbl.replace t.rev node ((group, index) :: cur)

let rev_remove t ~node ~group ~index =
  let cur = try Hashtbl.find t.rev node with Not_found -> [] in
  match List.filter (fun gi -> gi <> (group, index)) cur with
  | [] -> Hashtbl.remove t.rev node
  | rest -> Hashtbl.replace t.rev node rest

let make_over ~seed ~level ~groups ~nodes_per_group topo =
  if groups <= 0 then invalid_arg "Placement.make: need groups > 0";
  if nodes_per_group <= 0 then
    invalid_arg "Placement.make: need nodes_per_group > 0";
  let members =
    Array.init groups (fun g ->
        match select ~seed ~level ~n:nodes_per_group topo ~group:g with
        | picks when List.length picks = nodes_per_group ->
          let chosen = Array.of_list picks in
          (* Stable member order within the group: sort by pool index
             so the group's layout rotation is independent of straw
             rank noise. *)
          Array.sort compare chosen;
          chosen
        | _ ->
          invalid_arg
            (Printf.sprintf
               "Placement.make: topology offers fewer than %d %s domains"
               nodes_per_group
               (Topology.level_to_string level)))
  in
  let t =
    {
      groups;
      nodes_per_group;
      seed;
      level;
      topo;
      members;
      loads = Array.make (max 1 (Topology.size topo)) 0;
      rev = Hashtbl.create (Topology.size topo);
    }
  in
  Array.iteri
    (fun g ms ->
      Array.iteri
        (fun index p ->
          t.loads.(p) <- t.loads.(p) + 1;
          rev_add t ~node:p ~group:g ~index)
        ms)
    members;
  t

let make ?(seed = 0x91a) ~groups ~nodes_per_group ~pool () =
  if pool < nodes_per_group then
    invalid_arg "Placement.make: pool must hold at least one group (m >= n)";
  make_over ~seed ~level:Topology.Disk ~groups ~nodes_per_group
    (Topology.flat pool)

let make_topo ?(seed = 0x91a) ?(level = Topology.Host) ~groups ~nodes_per_group
    ~topology () =
  make_over ~seed ~level ~groups ~nodes_per_group topology

let group_nodes t g =
  if g < 0 || g >= t.groups then
    invalid_arg "Placement.group_nodes: group out of range";
  Array.copy t.members.(g)

let member t ~group ~index =
  if group < 0 || group >= t.groups then
    invalid_arg "Placement.member: group out of range";
  if index < 0 || index >= t.nodes_per_group then
    invalid_arg "Placement.member: member index out of range";
  t.members.(group).(index)

let locate t l =
  if l < 0 then invalid_arg "Placement.locate: negative logical block";
  (l mod t.groups, l / t.groups)

let logical t ~group ~block =
  if group < 0 || group >= t.groups then
    invalid_arg "Placement.logical: group out of range";
  (block * t.groups) + group

let loads t =
  ensure_pool t;
  Array.sub t.loads 0 (pool t)

(* Move one group member to another pool node (failover re-homing off a
   dead node, or a rebalance migration).  The initial sorted-by-pool-
   index member order is not preserved — member order is only an
   addressing convention, and the directory entry for [index] is
   rebuilt (remapped) by the caller right after. *)
let reassign t ~group ~index ~node =
  if group < 0 || group >= t.groups then
    invalid_arg "Placement.reassign: group out of range";
  if index < 0 || index >= t.nodes_per_group then
    invalid_arg "Placement.reassign: member index out of range";
  if node < 0 || node >= pool t then
    invalid_arg "Placement.reassign: pool node out of range";
  if Array.exists (fun q -> q = node) t.members.(group) then
    invalid_arg "Placement.reassign: node already hosts a member";
  ensure_pool t;
  let old = t.members.(group).(index) in
  t.members.(group).(index) <- node;
  t.loads.(old) <- t.loads.(old) - 1;
  t.loads.(node) <- t.loads.(node) + 1;
  rev_remove t ~node:old ~group ~index;
  rev_add t ~node ~group ~index

let members_on t p =
  if p < 0 || p >= pool t then invalid_arg "Placement.members_on: out of range";
  List.sort compare (try Hashtbl.find t.rev p with Not_found -> [])

let groups_on t p =
  if p < 0 || p >= pool t then invalid_arg "Placement.groups_on: out of range";
  List.sort_uniq compare
    (List.map fst (try Hashtbl.find t.rev p with Not_found -> []))

let violates t ~group ~index ~node =
  if group < 0 || group >= t.groups then
    invalid_arg "Placement.violates: group out of range";
  let d = Topology.domain t.topo ~node ~level:t.level in
  let hit = ref false in
  Array.iteri
    (fun i q ->
      if
        i <> index && Topology.domain t.topo ~node:q ~level:t.level = d
      then hit := true)
    t.members.(group);
  !hit

(* Diff the current member map against a fresh straw selection over the
   current topology.  Kept members keep their index; incoming nodes (in
   selection-rank order) take the freed indexes (ascending).  A freed
   index with no incoming node (degraded pool) keeps its old member —
   it will move once capacity returns and a later plan sees it. *)
let plan t =
  ensure_pool t;
  let moves = ref [] in
  for g = t.groups - 1 downto 0 do
    let cur = t.members.(g) in
    let fresh =
      select ~seed:t.seed ~level:t.level ~n:t.nodes_per_group t.topo ~group:g
    in
    let in_cur p = Array.exists (fun q -> q = p) cur in
    let in_fresh p = List.exists (fun q -> q = p) fresh in
    let incoming = List.filter (fun p -> not (in_cur p)) fresh in
    let freed = ref [] in
    for i = t.nodes_per_group - 1 downto 0 do
      if not (in_fresh cur.(i)) then freed := i :: !freed
    done;
    let rec pair freed incoming acc =
      match (freed, incoming) with
      | i :: fs, p :: ps ->
        pair fs ps
          ({ mv_group = g; mv_index = i; mv_src = cur.(i); mv_dst = p } :: acc)
      | _, [] | [], _ -> List.rev acc
    in
    moves := pair !freed incoming [] @ !moves
  done;
  !moves

let max_load_imbalance t =
  ensure_pool t;
  let lo = ref max_int and hi = ref 0 and any = ref false in
  for p = 0 to pool t - 1 do
    if Topology.weight t.topo p > 0. then begin
      any := true;
      if t.loads.(p) < !lo then lo := t.loads.(p);
      if t.loads.(p) > !hi then hi := t.loads.(p)
    end
  done;
  if !any then !hi - !lo else 0
