(** Systematic k-of-n Reed-Solomon (MDS) erasure codes over GF(2^h).

    A code instance fixes [k] data blocks and [p = n - k] redundant blocks
    per stripe.  Block [j] (for [k <= j < n]) holds the linear combination
    [sum_i alpha(j,i) * b_i] of the data blocks, and any [k] of the [n]
    stripe blocks reconstruct the data (paper Sec 3.3).

    The machinery is field-generic ({!Make}); a code built over [`Gf8]
    (the default, the paper's regime) caps [n] at 255, one over [`Gf16]
    at 65535.  Blocks store field symbols as [h/8] little-endian bytes,
    so a GF(2^16) code requires even block lengths.

    Indices are 0-based throughout: data blocks are [0 .. k-1], redundant
    blocks are [k .. n-1]. *)

type t

(** How the generator matrix is built.  Both yield systematic MDS codes:
    - [`Vandermonde]: an n x k Vandermonde matrix put in systematic form
      (the classical Reed-Solomon construction);
    - [`Cauchy]: identity stacked on a (n-k) x k Cauchy matrix — every
      square submatrix of a Cauchy matrix is nonsingular, giving MDS
      directly (the construction most storage systems use). *)
type construction = [ `Vandermonde | `Cauchy ]

val create :
  ?construction:construction ->
  ?field:Field.choice ->
  k:int ->
  n:int ->
  unit ->
  t
(** [create ~k ~n] builds a code (defaults: [`Vandermonde], [`Gf8]).
    Requires [1 <= k < n <= 2^h - 1].
    @raise Invalid_argument otherwise. *)

val construction : t -> construction

val field : t -> Field.choice
(** The field this code computes over. *)

val h : t -> int
(** Symbol width in bits (8 or 16). *)

val k : t -> int
val n : t -> int

val p : t -> int
(** Number of redundant blocks, [n - k]. *)

val alpha : t -> j:int -> i:int -> int
(** [alpha t ~j ~i] is the coefficient of data block [i] in redundant
    block [j] ([k <= j < n], [0 <= i < k]) — the constant a client
    multiplies a write delta by before adding it at node [j]. *)

val encode : t -> bytes array -> bytes array
(** [encode t data] takes the [k] data blocks and returns the [n - k]
    redundant blocks.  All blocks must have equal length. *)

val stripe : t -> bytes array -> bytes array
(** [stripe t data] is the full stripe: the [k] data blocks (copied)
    followed by the [n - k] redundant blocks. *)

val repair : t -> (int * bytes) list -> wanted:int list -> bytes array
(** [repair t avail ~wanted] computes the stripe blocks at the
    [wanted] positions, in order, from available stripe blocks given as
    [(stripe_index, contents)] pairs.  The first [k] distinct indices
    of [avail] are the sources: their generator submatrix is inverted
    once, and each wanted block costs at most [k] passes over the
    sources into a fresh buffer.  A wanted position is always computed,
    even when it is also available, so a wanted block equals the
    codeword through the sources whatever bytes [avail] holds for it.
    @raise Invalid_argument if fewer than [k] distinct indices are
    given, a source or wanted index is outside [0, n), or the sources
    differ in length. *)

val decode : t -> (int * bytes) list -> bytes array
(** [decode t avail] reconstructs the [k] data blocks from any [>= k]
    available stripe blocks: a data block among the sources (see
    {!repair}) is copied, the others are repaired.
    @raise Invalid_argument if fewer than [k] distinct indices are given. *)

val reconstruct_stripe : t -> (int * bytes) list -> bytes array
(** [reconstruct_stripe t avail] rebuilds the complete stripe (all [n]
    blocks) from any [>= k] available blocks: the sources are copied,
    the other [n - k] blocks are repaired. *)

val update_delta : t -> j:int -> i:int -> v:bytes -> w:bytes -> bytes
(** [update_delta t ~j ~i ~v ~w] is [alpha(j,i) * (v - w)]: the payload a
    client sends to redundant node [j] when changing data block [i] from
    [w] to [v] (paper Fig 3/Fig 5, line 10).  Allocates; the hot path
    uses {!update_delta_into} on pooled buffers instead. *)

val update_delta_into : t -> j:int -> i:int -> dst:bytes -> diff:bytes -> unit
(** [update_delta_into t ~j ~i ~dst ~diff] sets
    [dst <- alpha(j,i) * diff], where [diff = v XOR w] is the write's
    block difference computed once and shared across the fan-out — the
    allocation-free form of {!update_delta}. *)

val rescale_into :
  t -> from_alpha:int -> to_alpha:int -> dst:bytes -> src:bytes -> unit
(** [rescale_into t ~from_alpha ~to_alpha ~dst ~src] sets
    [dst <- (to_alpha / from_alpha) * src] in the code's field: rebase a
    payload scaled for one member's coefficient onto another member's —
    how delta-repair reuses a source node's logged adds for a target at
    a different stripe position.
    @raise Invalid_argument if [from_alpha] is zero. *)

val xor_into : t -> dst:bytes -> src:bytes -> unit
(** Field addition of blocks through the code's kernel (XOR in any
    GF(2^h)). *)

val apply_update : redundant:bytes -> delta:bytes -> unit
(** [apply_update ~redundant ~delta] adds (XORs) the delta into the
    redundant block in place — the storage node's [add]. *)

val verify_stripe : t -> bytes array -> bool
(** [verify_stripe t blocks] checks that an [n]-block stripe satisfies the
    code (each redundant block equals its linear combination). *)

(** The field-generic machinery itself, for callers that want a
    monomorphic code over a specific field (tests, benchmarks). *)
module Make (_ : Field.S) (_ : Kernel.S) : sig
  type t

  val create : ?construction:construction -> k:int -> n:int -> unit -> t
  val construction : t -> construction
  val k : t -> int
  val n : t -> int
  val p : t -> int
  val alpha : t -> j:int -> i:int -> int
  val encode : t -> bytes array -> bytes array
  val stripe : t -> bytes array -> bytes array
  val repair : t -> (int * bytes) list -> wanted:int list -> bytes array
  val decode : t -> (int * bytes) list -> bytes array
  val reconstruct_stripe : t -> (int * bytes) list -> bytes array
  val update_delta : t -> j:int -> i:int -> v:bytes -> w:bytes -> bytes
  val update_delta_into : t -> j:int -> i:int -> dst:bytes -> diff:bytes -> unit
  val verify_stripe : t -> bytes array -> bool
end
