(** HMHT: a fixed-size hash table with one Harris-Michael list per
    bucket, the paper's fifth benchmark structure. Bucket count is
    [key_range / ht_load] (the paper's "load factor"). A bucket is a
    bare head cell; one anchor sentinel per table stands as the [prev]
    node of every bucket's first node. *)

val hash : int -> int -> int
(** [hash nbuckets key] is the bucket of [key]. For a power-of-two
    [nbuckets], the keys [q * nbuckets] to [(q + 1) * nbuckets - 1] land
    one per bucket, and the parity of a bucket's key flips with [q], so
    the even keys spread over every bucket, not the even ones only. *)

module Make (T : Pop_core.Smr_typed.S) : Set_intf.SET
