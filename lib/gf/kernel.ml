(* Bulk coding kernels behind one signature.

   The protocol spends its compute time in exactly four block-wise
   operations (paper Fig 8a): XOR (add at a storage node), scale
   (broadcast add), scale-XOR (encode/decode accumulation) and delta
   (client preparing an add payload).  Each kernel implements them
   *in place* over caller-provided buffers so the hot paths allocate
   nothing.

   Three implementations:
   - [Scalar (F)]: one symbol at a time through the field's [mul]/[add]
     — the obviously-correct reference the optimized kernels are
     property-tested against (and the baseline the CI throughput
     assertion compares against);
   - [Table8]: GF(2^8), per-alpha 256-entry product tables applied a
     64-bit word at a time, mirroring the paper's hand-optimized C
     (Sec 5.1);
   - [Split16]: GF(2^16), the classic low/high-byte split-table
     multiply: alpha * s = lo[s land 0xff] XOR hi[s lsr 8], where
     lo[b] = alpha * b and hi[b] = alpha * (b << 8) — 512 table entries
     per alpha instead of an unthinkable 65536^2 product table. *)

module type S = sig
  val h : int
  (** Symbol width in bits of the field this kernel computes over. *)

  val name : string
  (** Stable label for benchmarks and test output. *)

  val xor_into : dst:bytes -> src:bytes -> unit
  (** [dst.(i) <- dst.(i) + src.(i)] (field addition = XOR). *)

  val scale_into : int -> dst:bytes -> src:bytes -> unit
  (** [dst.(i) <- alpha * src.(i)].  [dst == src] is allowed. *)

  val scale_xor_into : int -> dst:bytes -> src:bytes -> unit
  (** [dst.(i) <- dst.(i) + alpha * src.(i)] — the fused accumulation
      kernel used by encode/decode and the storage-side broadcast add. *)

  val delta_into : int -> dst:bytes -> v:bytes -> w:bytes -> unit
  (** [dst.(i) <- alpha * (v.(i) - w.(i))] — the add payload a client
      computes when a write changes a data block from [w] to [v]. *)

  val is_zero : bytes -> bool
end

(* Shared length check.  The message keeps the historical "Block_ops"
   prefix: Block_ops re-exports these kernels and callers (and tests)
   match on it. *)
let check_same_length a b =
  if Bytes.length a <> Bytes.length b then
    invalid_arg "Block_ops: blocks of different lengths"

(* Word-sliced XOR: field addition is XOR in any GF(2^h), and the
   little-endian symbol layout makes an 8-byte-wide XOR valid for both
   h = 8 and h = 16, so the optimized kernels share it. *)
let word_xor_into ~dst ~src =
  check_same_length dst src;
  let len = Bytes.length dst in
  let words = len / 8 in
  for i = 0 to words - 1 do
    let off = i * 8 in
    Bytes.set_int64_ne dst off
      (Int64.logxor (Bytes.get_int64_ne dst off) (Bytes.get_int64_ne src off))
  done;
  for i = words * 8 to len - 1 do
    Bytes.unsafe_set dst i
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get dst i)
          lxor Char.code (Bytes.unsafe_get src i)))
  done

(* dst := a XOR b, word-sliced (dst may alias either input). *)
let word_xor3_into ~dst ~a ~b =
  check_same_length dst a;
  check_same_length dst b;
  let len = Bytes.length dst in
  let words = len / 8 in
  for i = 0 to words - 1 do
    let off = i * 8 in
    Bytes.set_int64_ne dst off
      (Int64.logxor (Bytes.get_int64_ne a off) (Bytes.get_int64_ne b off))
  done;
  for i = words * 8 to len - 1 do
    Bytes.unsafe_set dst i
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get a i) lxor Char.code (Bytes.unsafe_get b i)))
  done

let word_is_zero b =
  let len = Bytes.length b in
  let words = len / 8 in
  let rec go_words i =
    i >= words
    || (Int64.equal (Bytes.get_int64_ne b (i * 8)) 0L && go_words (i + 1))
  in
  let rec go_tail i =
    i >= len || (Bytes.get b i = '\000' && go_tail (i + 1))
  in
  go_words 0 && go_tail (words * 8)

(* ------------------------------------------------------------------ *)
(* Scalar reference: one symbol at a time through the field ops.  No
   tables, no word tricks — slow on purpose, and trivially right. *)

module Scalar (F : Field.S) : S = struct
  let h = F.h
  let name = Printf.sprintf "scalar%d" F.h
  let sym = F.h / 8

  let check b =
    if Bytes.length b mod sym <> 0 then
      invalid_arg
        (Printf.sprintf "Kernel.%s: block length not a multiple of %d" name sym)

  let get b o = if sym = 1 then Bytes.get_uint8 b o else Bytes.get_uint16_le b o

  let set b o x =
    if sym = 1 then Bytes.set_uint8 b o x else Bytes.set_uint16_le b o x

  let xor_into ~dst ~src =
    check_same_length dst src;
    check dst;
    let syms = Bytes.length dst / sym in
    for i = 0 to syms - 1 do
      let o = i * sym in
      set dst o (F.add (get dst o) (get src o))
    done

  let scale_into alpha ~dst ~src =
    check_same_length dst src;
    check dst;
    let syms = Bytes.length dst / sym in
    for i = 0 to syms - 1 do
      let o = i * sym in
      set dst o (F.mul alpha (get src o))
    done

  let scale_xor_into alpha ~dst ~src =
    check_same_length dst src;
    check dst;
    let syms = Bytes.length dst / sym in
    for i = 0 to syms - 1 do
      let o = i * sym in
      set dst o (F.add (get dst o) (F.mul alpha (get src o)))
    done

  let delta_into alpha ~dst ~v ~w =
    check_same_length dst v;
    check_same_length dst w;
    check dst;
    let syms = Bytes.length dst / sym in
    for i = 0 to syms - 1 do
      let o = i * sym in
      set dst o (F.mul alpha (F.sub (get v o) (get w o)))
    done

  let is_zero b =
    check b;
    let syms = Bytes.length b / sym in
    let rec go i = i >= syms || (get b (i * sym) = F.zero && go (i + 1)) in
    go 0
end

module Scalar8 = Scalar (Field.Gf8)
module Scalar16 = Scalar (Field.Gf16)

(* ------------------------------------------------------------------ *)
(* GF(2^8): word-sliced XOR, scale and scale-XOR over per-alpha
   256-entry product tables. *)

module Table8 : S = struct
  let h = 8
  let name = "table8"

  (* Per-alpha multiplication tables; 256 possible alphas, built
     eagerly at module init (64 KB total).  Each table maps a byte to
     alpha * byte.  Eager construction keeps the hot path branch-free
     AND domain-safe: the array is immutable by the time any domain can
     read it, so there is no racy lazy-publication of half-filled
     tables (the pre-multicore version memoized on first use, which
     under parallel writers could expose a table before its fill
     completed). *)
  let mul_tables : bytes array =
    Array.init 256 (fun alpha ->
        let t = Bytes.create 256 in
        for x = 0 to 255 do
          Bytes.unsafe_set t x (Char.unsafe_chr (Gf256.mul alpha x))
        done;
        t)

  let mul_table alpha = Array.unsafe_get mul_tables (alpha land 0xff)

  let xor_into = word_xor_into

  (* Unchecked little-endian 64-bit access: the kernels check lengths
     once up front and never index past [len / 8 * 8]. *)
  external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
  external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
  external bswap64 : int64 -> int64 = "%bswap_int64"

  let[@inline] get_le b off =
    if Sys.big_endian then bswap64 (get64u b off) else get64u b off

  let[@inline] set_le b off x =
    if Sys.big_endian then set64u b off (bswap64 x) else set64u b off x

  (* alpha * each byte of a 32-bit half word held in an int: four
     table lookups, reassembled in place.  The 64-bit word is split in
     two because an OCaml int has 63 bits. *)
  let[@inline] scale32 t x =
    Char.code (Bytes.unsafe_get t (x land 0xff))
    lor (Char.code (Bytes.unsafe_get t ((x lsr 8) land 0xff)) lsl 8)
    lor (Char.code (Bytes.unsafe_get t ((x lsr 16) land 0xff)) lsl 16)
    lor (Char.code (Bytes.unsafe_get t ((x lsr 24) land 0xff)) lsl 24)

  (* alpha * each byte of the word at [off]; stays an unboxed int64
     once inlined. *)
  let[@inline] scale64 t src off =
    let w = get_le src off in
    let lo = scale32 t (Int64.to_int w) in
    let hi = scale32 t (Int64.to_int (Int64.shift_right_logical w 32)) in
    Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)

  let scale_into alpha ~dst ~src =
    check_same_length dst src;
    let t = mul_table alpha in
    let len = Bytes.length src in
    let words = len / 8 in
    for i = 0 to words - 1 do
      let off = i * 8 in
      set_le dst off (scale64 t src off)
    done;
    for i = words * 8 to len - 1 do
      Bytes.unsafe_set dst i
        (Bytes.unsafe_get t (Char.code (Bytes.unsafe_get src i)))
    done

  let scale_xor_into alpha ~dst ~src =
    check_same_length dst src;
    let t = mul_table alpha in
    let len = Bytes.length src in
    let words = len / 8 in
    for i = 0 to words - 1 do
      let off = i * 8 in
      set_le dst off (Int64.logxor (get_le dst off) (scale64 t src off))
    done;
    for i = words * 8 to len - 1 do
      let p =
        Char.code (Bytes.unsafe_get t (Char.code (Bytes.unsafe_get src i)))
      in
      Bytes.unsafe_set dst i
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get dst i) lxor p))
    done

  let delta_into alpha ~dst ~v ~w =
    (* In GF(2^h), v - w = v XOR w: word-sliced subtraction, then a
       table scale in place only when alpha <> 1. *)
    word_xor3_into ~dst ~a:v ~b:w;
    if alpha <> 1 then scale_into alpha ~dst ~src:dst

  let is_zero = word_is_zero
end

(* ------------------------------------------------------------------ *)
(* GF(2^16): split-table multiply.  alpha * s decomposes over the low
   and high bytes of s — s = s_lo + (s_hi << 8), so
   alpha * s = alpha * s_lo + alpha * (s_hi << 8) — two 256-entry
   lookups and one XOR per symbol.  65536 possible alphas make eager
   table construction (64 MB) pointless; a code uses only its n - k
   coefficient columns, so tables are built lazily per alpha. *)

module Split16 : S = struct
  let h = 16
  let name = "split16"

  (* Per-alpha (lo, hi) tables: lo.(b) = alpha * b,
     hi.(b) = alpha * (b << 8); 512 ints per alpha.  The memo table is
     {e domain-local}: each domain lazily builds its own copy of the
     handful of coefficient columns its codes use, so the hot path
     never takes a lock and the table can never be structurally
     corrupted by concurrent insertion (a shared Hashtbl.add from two
     domains is undefined behaviour). *)
  let tables_key : (int, int array * int array) Hashtbl.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Hashtbl.create 16)

  (* [Hashtbl.find], not [find_opt]: the hit path must not box an
     option — the kernels promise zero steady-state allocation. *)
  let split_tables alpha =
    let tables = Domain.DLS.get tables_key in
    match Hashtbl.find tables alpha with
    | t -> t
    | exception Not_found ->
      let lo = Array.init 256 (fun b -> Gf65536.mul alpha b) in
      let hi = Array.init 256 (fun b -> Gf65536.mul alpha (b lsl 8)) in
      Hashtbl.add tables alpha (lo, hi);
      (lo, hi)

  let check b =
    if Bytes.length b land 1 <> 0 then
      invalid_arg "Kernel.split16: block length not a multiple of 2"

  let xor_into ~dst ~src =
    check dst;
    word_xor_into ~dst ~src

  let scale_into alpha ~dst ~src =
    check_same_length dst src;
    check dst;
    let lo, hi = split_tables alpha in
    let syms = Bytes.length dst / 2 in
    for i = 0 to syms - 1 do
      let o = i * 2 in
      let s = Bytes.get_uint16_le src o in
      Bytes.set_uint16_le dst o
        (Array.unsafe_get lo (s land 0xff) lxor Array.unsafe_get hi (s lsr 8))
    done

  let scale_xor_into alpha ~dst ~src =
    check_same_length dst src;
    check dst;
    let lo, hi = split_tables alpha in
    let syms = Bytes.length dst / 2 in
    for i = 0 to syms - 1 do
      let o = i * 2 in
      let s = Bytes.get_uint16_le src o in
      let p =
        Array.unsafe_get lo (s land 0xff) lxor Array.unsafe_get hi (s lsr 8)
      in
      Bytes.set_uint16_le dst o (Bytes.get_uint16_le dst o lxor p)
    done

  let delta_into alpha ~dst ~v ~w =
    check dst;
    word_xor3_into ~dst ~a:v ~b:w;
    if alpha <> 1 then scale_into alpha ~dst ~src:dst

  let is_zero b =
    check b;
    word_is_zero b
end

(* ------------------------------------------------------------------ *)

let for_h : int -> (module S) = function
  | 8 -> (module Table8)
  | 16 -> (module Split16)
  | h -> invalid_arg (Printf.sprintf "Kernel.for_h: no kernel for GF(2^%d)" h)

let scalar_for_h : int -> (module S) = function
  | 8 -> (module Scalar8)
  | 16 -> (module Scalar16)
  | h -> invalid_arg (Printf.sprintf "Kernel.scalar_for_h: no field GF(2^%d)" h)
