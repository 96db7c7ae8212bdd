(** Self-describing per-block integrity records.

    Separate-metadata verification in the style of Androulaki/Cachin et
    al. ("Erasure-Coded Byzantine Storage with Separate Metadata"): each
    stored block is paired with a small sealed record — digest of the
    block bytes, epoch, writer tag — kept apart from the bulk data so
    that checking is cheap and the record itself is tamper-evident.

    The digest covers block bytes only (the post-state of the mutation
    that produced them); epoch and writer are carried alongside inside
    the sealed record.  This keeps the commutative-add algebra intact:
    the same set of adds applied in any order yields the same block and
    therefore the same digest. *)

(** Verdict of {!verify}, ordered by how the fault was caught:
    - [Bad_seal]: the metadata record itself is corrupt;
    - [Stale_epoch]: record and block are internally consistent but
      sealed under a different epoch than the slot is in now — the
      stale-state (rollback) fault;
    - [Digest_mismatch]: bit rot in the block bytes. *)
type status = Valid | Digest_mismatch | Stale_epoch | Bad_seal

type record = {
  digest : int64;  (** {!digest_bytes} of the block bytes *)
  epoch : int;  (** epoch the block was sealed under *)
  writer : int64;  (** opaque tag of the last mutating op *)
  seal : int64;  (** digest of the record's own fields *)
}

val digest_bytes : bytes -> int64
(** Word-at-a-time 64-bit digest of the block contents: four lanes, each
    fed one little-endian 8-byte word per 32-byte step by a
    multiply-xorshift, combined with the length and finished with a
    multiply-xorshift; the last [length mod 32] bytes go through FNV-1a.
    The value is the same on every host.  Not cryptographic: the threat
    model is bit rot and stale state, not adversarial forgery.  It
    guarantees three things the record relies on:
    - {b bytes only}: the value depends on the length and contents of
      the block alone (not on the buffer, its alignment, epoch or
      writer), so the commutative-add algebra holds;
    - {b certain detection of one-word changes}: each lane step is a
      bijection of the lane state for a fixed word, so any change
      confined to one aligned 8-byte word, or to one tail byte, always
      changes the digest (every single-byte flip included);
    - {b no allocation per word}: a call allocates only its boxed
      result. *)

val pack_writer : seq:int -> blk:int -> client:int -> int64
(** Deterministically folds a transaction id into an opaque writer tag
    (integrity has no dependency on the protocol's tid type). *)

val make : epoch:int -> writer:int64 -> bytes -> record
(** Digest the block and seal a fresh record. *)

val reseal : record -> epoch:int -> record
(** Carry an existing digest into a new epoch (recovery finalize bumps
    the epoch without changing block bytes). *)

val verify : record -> epoch:int -> bytes -> status
(** Check a record against the slot's current epoch and stored bytes.
    Seal first, then epoch, then digest. *)

val bytes_size : int
(** At-rest / wire footprint of one record, in bytes. *)

val pp_status : Format.formatter -> status -> unit
