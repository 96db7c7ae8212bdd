(** Bulk coding kernels behind one signature.

    The protocol spends its compute time in four block-wise operations
    (paper Fig 8a): XOR, scale, fused scale-XOR, and delta.  Every
    kernel implements them {e in place} over caller-provided buffers —
    the hot paths allocate nothing (pair with {!Buf_pool} for scratch
    space).  Blocks hold [h/8]-byte little-endian symbols.

    All functions raise [Invalid_argument] on mismatched lengths, and
    the 16-bit kernels additionally on odd block lengths. *)

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

module Scalar (_ : Field.S) : S
(** Reference kernel: one symbol at a time through the field's own
    [mul]/[add].  The optimized kernels are property-tested against it,
    and CI asserts they beat it on throughput. *)

module Scalar8 : S
(** [Scalar (Field.Gf8)]. *)

module Scalar16 : S
(** [Scalar (Field.Gf16)]. *)

module Table8 : S
(** GF(2^8): per-alpha 256-entry product tables, word-sliced — each
    64-bit word takes eight table lookups and one write, with a byte
    loop only for the [len mod 8] tail — the paper's hand-optimized C
    kernels (Sec 5.1). *)

module Split16 : S
(** GF(2^16): low/high-byte split-table multiply,
    [alpha * s = lo.(s land 0xff) lxor hi.(s lsr 8)] with
    [lo.(b) = alpha * b] and [hi.(b) = alpha * (b lsl 8)] — two lookups
    and one XOR per symbol, 512 table entries per alpha built lazily. *)

val for_h : int -> (module S)
(** The optimized kernel for GF(2^h), [h] = 8 or 16.
    @raise Invalid_argument otherwise. *)

val scalar_for_h : int -> (module S)
(** The scalar reference kernel for GF(2^h), [h] = 8 or 16. *)
