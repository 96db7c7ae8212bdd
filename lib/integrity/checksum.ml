(* Self-describing per-block integrity records (separate-metadata style,
   after Androulaki/Cachin et al.).

   Each stored block carries a small metadata record kept *apart* from
   the block bytes: a digest of the current block contents, the epoch
   the block belongs to, and an opaque writer tag identifying the last
   mutating operation.  The record also seals itself (a digest over its
   own fields) so a rotted record is as detectable as a rotted block.

   The block digest runs a word at a time, at memory speed: a node pays
   it on every read, swap, add, state fetch and reconstruct it serves.

   Two deliberate design points:

   - The digest covers the block bytes only — the post-state of
     whatever mutation produced them.  Epoch and writer ride alongside
     in the sealed record instead of being folded into the digest, so
     the commutative-add path keeps its algebra: applying the same set
     of adds in any order yields the same block bytes and therefore the
     same digest.

   - Verification is [record x current epoch x block bytes]: a record
     whose seal fails is corrupt metadata, a record sealed under a
     different epoch is well-formed but stale (the rollback fault), and
     a digest mismatch is bit rot in the block itself. *)

type status = Valid | Digest_mismatch | Stale_epoch | Bad_seal

type record = { digest : int64; epoch : int; writer : int64; seal : int64 }

(* FNV-1a, 64-bit, for the record's own fields and the digest's tail
   bytes.  Not cryptographic — the threat model is bit rot and stale
   state, not an adversary forging blocks. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let fnv_int64 h x =
  let h = ref h in
  for shift = 0 to 7 do
    h := fnv_byte !h (Int64.to_int (Int64.shift_right_logical x (shift * 8)))
  done;
  !h

let fnv_int h x = fnv_int64 h (Int64.of_int x)

(* Block digest: four independent 64-bit lanes, each fed one
   little-endian word per 32-byte step.  [mix h w] is a bijection of
   [h] for a fixed [w] (xor, multiply by an odd constant, invertible
   xorshift) and of [w] for a fixed [h], so a change confined to one
   aligned word changes its lane's state, every later step keeps it
   changed, and so does the fold of the length and then each lane
   through the same [mix].  The tail (length mod 32 bytes) goes
   through [fnv_byte], a bijection in the same two ways.  The loop
   keeps every int64 unboxed: only the result is boxed. *)
let mix_prime = 0x9e3779b97f4a7c15L
let fin_prime = 0xbf58476d1ce4e5b9L

let[@inline] mix h w =
  let x = Int64.mul (Int64.logxor h w) mix_prime in
  Int64.logxor x (Int64.shift_right_logical x 29)

let digest_bytes b =
  let len = Bytes.length b in
  let body = len land lnot 31 in
  let h0 = ref fnv_offset in
  let h1 = ref (Int64.add fnv_offset 1L) in
  let h2 = ref (Int64.add fnv_offset 2L) in
  let h3 = ref (Int64.add fnv_offset 3L) in
  let i = ref 0 in
  while !i < body do
    h0 := mix !h0 (Bytes.get_int64_le b !i);
    h1 := mix !h1 (Bytes.get_int64_le b (!i + 8));
    h2 := mix !h2 (Bytes.get_int64_le b (!i + 16));
    h3 := mix !h3 (Bytes.get_int64_le b (!i + 24));
    i := !i + 32
  done;
  let h = ref (mix (mix (mix (mix (Int64.of_int len) !h0) !h1) !h2) !h3) in
  for j = body to len - 1 do
    h := fnv_byte !h (Char.code (Bytes.unsafe_get b j))
  done;
  let x =
    Int64.mul (Int64.logxor !h (Int64.shift_right_logical !h 32)) fin_prime
  in
  Int64.logxor x (Int64.shift_right_logical x 29)

let pack_writer ~seq ~blk ~client =
  fnv_int (fnv_int (fnv_int fnv_offset seq) blk) client

let seal_of ~digest ~epoch ~writer =
  fnv_int64 (fnv_int (fnv_int64 fnv_offset digest) epoch) writer

let make ~epoch ~writer block =
  let digest = digest_bytes block in
  { digest; epoch; writer; seal = seal_of ~digest ~epoch ~writer }

let reseal r ~epoch =
  { r with epoch; seal = seal_of ~digest:r.digest ~epoch ~writer:r.writer }

let verify r ~epoch block =
  if r.seal <> seal_of ~digest:r.digest ~epoch:r.epoch ~writer:r.writer then
    Bad_seal
  else if r.epoch <> epoch then Stale_epoch
  else if digest_bytes block <> r.digest then Digest_mismatch
  else Valid

(* Wire/at-rest footprint: digest + epoch + writer + seal. *)
let bytes_size = 8 + 4 + 8 + 8

let pp_status fmt s =
  Format.pp_print_string fmt
    (match s with
    | Valid -> "valid"
    | Digest_mismatch -> "digest-mismatch"
    | Stale_epoch -> "stale-epoch"
    | Bad_seal -> "bad-seal")
