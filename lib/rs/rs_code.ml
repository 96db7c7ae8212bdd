(* Systematic RS codes: rows 0..k-1 of the generator are the identity,
   rows k..n-1 hold the alpha coefficients.  Two constructions:
   - Vandermonde: right-multiply an n x k Vandermonde matrix by the
     inverse of its top k x k square, preserving the
     any-k-rows-invertible (MDS) property;
   - Cauchy: stack the identity on a (n-k) x k Cauchy matrix, MDS
     because every square submatrix of a Cauchy matrix is nonsingular.

   The machinery is a functor over the field and its bulk kernel; the
   public [t] is a small dispatch wrapper over the GF(2^8) and GF(2^16)
   instances so every existing caller keeps a single monomorphic type. *)

type construction = [ `Vandermonde | `Cauchy ]

module Make (F : Field.S) (K : Kernel.S) = struct
  module M = Matrix.Make (F)

  type t = {
    k : int;
    n : int;
    construction : construction;
    gen : M.t; (* n x k, systematic *)
  }

  let create ?(construction = `Vandermonde) ~k ~n () =
    if k < 1 || n <= k || n > F.group_order then
      invalid_arg
        (Printf.sprintf "Rs_code.create: need 1 <= k < n <= %d" F.group_order);
    let gen =
      match construction with
      | `Vandermonde ->
        let v = M.vandermonde ~rows:n ~cols:k in
        let top = M.submatrix_rows v (List.init k Fun.id) in
        M.mul v (M.invert top)
      | `Cauchy ->
        let c = M.cauchy ~rows:(n - k) ~cols:k in
        M.init ~rows:n ~cols:k (fun r col ->
            if r < k then if r = col then 1 else 0 else M.get c (r - k) col)
    in
    { k; n; construction; gen }

  let construction t = t.construction
  let k t = t.k
  let n t = t.n
  let p t = t.n - t.k

  let alpha t ~j ~i =
    if j < t.k || j >= t.n then invalid_arg "Rs_code.alpha: j not redundant";
    if i < 0 || i >= t.k then invalid_arg "Rs_code.alpha: bad data index";
    M.get t.gen j i

  let check_data t data =
    if Array.length data <> t.k then
      invalid_arg "Rs_code: expected k data blocks";
    let len = Bytes.length data.(0) in
    Array.iter
      (fun b ->
        if Bytes.length b <> len then
          invalid_arg "Rs_code: blocks of different lengths")
      data;
    len

  let encode t data =
    let len = check_data t data in
    Array.init (p t) (fun r ->
        let j = t.k + r in
        let out = Bytes.make len '\000' in
        for i = 0 to t.k - 1 do
          let a = M.get t.gen j i in
          if a <> 0 then K.scale_xor_into a ~dst:out ~src:data.(i)
        done;
        out)

  let stripe t data =
    let redundant = encode t data in
    Array.append (Array.map Bytes.copy data) redundant

  let distinct_prefix ~who avail kneed =
    (* First [kneed] distinct-index pairs from [avail]. *)
    let seen = Hashtbl.create 16 in
    let rec go acc count = function
      | [] -> List.rev acc
      | _ when count = kneed -> List.rev acc
      | (idx, blk) :: rest ->
        if Hashtbl.mem seen idx then go acc count rest
        else begin
          Hashtbl.add seen idx ();
          go ((idx, blk) :: acc) (count + 1) rest
        end
    in
    let chosen = go [] 0 avail in
    if List.length chosen < kneed then
      invalid_arg (who ^ ": fewer than k distinct blocks");
    chosen

  (* The decode sources — the first k distinct available pairs — and
     the inverse of their k x k generator submatrix. *)
  let sources ~who t avail =
    let chosen = distinct_prefix ~who avail t.k in
    let len = Bytes.length (snd (List.hd chosen)) in
    List.iter
      (fun (idx, blk) ->
        if idx < 0 || idx >= t.n then invalid_arg (who ^ ": bad index");
        if Bytes.length blk <> len then
          invalid_arg (who ^ ": blocks of different lengths"))
      chosen;
    let inv = M.invert (M.submatrix_rows t.gen (List.map fst chosen)) in
    (Array.of_list chosen, inv)

  (* Block [j] from the sources alone: its coefficient row is generator
     row [j] times the inverse, and each source costs at most one pass
     — a scale (or copy) into the fresh buffer for the first, a
     scale-XOR (or XOR) for each later one with a nonzero
     coefficient. *)
  let compute t (src, inv) j =
    let coeffs = M.row (M.mul (M.submatrix_rows t.gen [ j ]) inv) 0 in
    let len = Bytes.length (snd src.(0)) in
    let out = Bytes.create len in
    Array.iteri
      (fun c (_, blk) ->
        let a = coeffs.(c) in
        if c = 0 then
          if a = F.one then Bytes.blit blk 0 out 0 len
          else K.scale_into a ~dst:out ~src:blk
        else if a = F.one then K.xor_into ~dst:out ~src:blk
        else if a <> F.zero then K.scale_xor_into a ~dst:out ~src:blk)
      src;
    out

  let repair t avail ~wanted =
    let who = "Rs_code.repair" in
    let s = sources ~who t avail in
    List.iter
      (fun j -> if j < 0 || j >= t.n then invalid_arg (who ^ ": bad index"))
      wanted;
    Array.of_list (List.map (compute t s) wanted)

  (* [positions] of the codeword through the sources: a source position
     is a copy of its own bytes (which is what decoding it would give),
     every other one is computed. *)
  let restore t avail positions =
    let ((src, _) as s) = sources ~who:"Rs_code.decode" t avail in
    Array.map
      (fun j ->
        match Array.find_opt (fun (idx, _) -> idx = j) src with
        | Some (_, blk) -> Bytes.copy blk
        | None -> compute t s j)
      positions

  let decode t avail = restore t avail (Array.init t.k Fun.id)
  let reconstruct_stripe t avail = restore t avail (Array.init t.n Fun.id)

  let update_delta t ~j ~i ~v ~w =
    let d = Bytes.create (Bytes.length v) in
    K.delta_into (alpha t ~j ~i) ~dst:d ~v ~w;
    d

  (* [diff] is v XOR w (field subtraction), computed once per write;
     this scales it by node [j]'s coefficient into a caller-provided
     (pooled) buffer — the allocation-free fan-out step. *)
  let update_delta_into t ~j ~i ~dst ~diff =
    let a = alpha t ~j ~i in
    if a = F.one then Bytes.blit diff 0 dst 0 (Bytes.length diff)
    else K.scale_into a ~dst ~src:diff

  (* [dst <- (to_alpha / from_alpha) * src]: rebase a payload that was
     scaled for one member's coefficient onto another member's — the
     delta-repair path's only field work when shipping logged adds to a
     differently-placed target. *)
  let rescale_into ~from_alpha ~to_alpha ~dst ~src =
    if from_alpha = 0 then invalid_arg "Rs_code.rescale_into: from_alpha = 0";
    let a = F.mul to_alpha (F.inv from_alpha) in
    if a = F.one then Bytes.blit src 0 dst 0 (Bytes.length src)
    else K.scale_into a ~dst ~src

  let verify_stripe t blocks =
    if Array.length blocks <> t.n then
      invalid_arg "Rs_code.verify_stripe: expected n blocks";
    let data = Array.sub blocks 0 t.k in
    let expect = encode t data in
    let ok = ref true in
    for r = 0 to p t - 1 do
      if not (Bytes.equal expect.(r) blocks.(t.k + r)) then ok := false
    done;
    !ok
end

module Rs8 = Make (Field.Gf8) (Kernel.Table8)
module Rs16 = Make (Field.Gf16) (Kernel.Split16)

type t = G8 of Rs8.t | G16 of Rs16.t

let create ?construction ?(field = `Gf8) ~k ~n () =
  match (field : Field.choice) with
  | `Gf8 -> G8 (Rs8.create ?construction ~k ~n ())
  | `Gf16 -> G16 (Rs16.create ?construction ~k ~n ())

let field = function G8 _ -> `Gf8 | G16 _ -> `Gf16
let h t = Field.h_of (field t)

let construction = function
  | G8 c -> Rs8.construction c
  | G16 c -> Rs16.construction c

let k = function G8 c -> Rs8.k c | G16 c -> Rs16.k c
let n = function G8 c -> Rs8.n c | G16 c -> Rs16.n c
let p = function G8 c -> Rs8.p c | G16 c -> Rs16.p c

let alpha t ~j ~i =
  match t with G8 c -> Rs8.alpha c ~j ~i | G16 c -> Rs16.alpha c ~j ~i

let encode = function G8 c -> Rs8.encode c | G16 c -> Rs16.encode c
let stripe = function G8 c -> Rs8.stripe c | G16 c -> Rs16.stripe c
let decode = function G8 c -> Rs8.decode c | G16 c -> Rs16.decode c

let repair t avail ~wanted =
  match t with
  | G8 c -> Rs8.repair c avail ~wanted
  | G16 c -> Rs16.repair c avail ~wanted

let reconstruct_stripe = function
  | G8 c -> Rs8.reconstruct_stripe c
  | G16 c -> Rs16.reconstruct_stripe c

let update_delta t ~j ~i ~v ~w =
  match t with
  | G8 c -> Rs8.update_delta c ~j ~i ~v ~w
  | G16 c -> Rs16.update_delta c ~j ~i ~v ~w

let update_delta_into t ~j ~i ~dst ~diff =
  match t with
  | G8 c -> Rs8.update_delta_into c ~j ~i ~dst ~diff
  | G16 c -> Rs16.update_delta_into c ~j ~i ~dst ~diff

let rescale_into t ~from_alpha ~to_alpha ~dst ~src =
  match t with
  | G8 _ -> Rs8.rescale_into ~from_alpha ~to_alpha ~dst ~src
  | G16 _ -> Rs16.rescale_into ~from_alpha ~to_alpha ~dst ~src

(* XOR is the same bit pattern in every GF(2^h) — delegate to the
   kernel anyway so length checks match the code's field. *)
let xor_into t ~dst ~src =
  match t with
  | G8 _ -> Kernel.Table8.xor_into ~dst ~src
  | G16 _ -> Kernel.Split16.xor_into ~dst ~src

let apply_update ~redundant ~delta = Block_ops.xor_into ~dst:redundant ~src:delta

let verify_stripe = function
  | G8 c -> Rs8.verify_stripe c
  | G16 c -> Rs16.verify_stripe c
