(** Per-thread rows of plain [int] words, one row per thread, all in one
    padded block.

    For single-writer words on a hot path that must not share a cache
    line with another thread's hot word: each row starts at least 8
    words (64 bytes) after the previous row's last slot, and guard words
    keep the first and last rows 8 words away from whatever the
    allocator places before and after the block. Padding inside one
    block is the only layout promotion by the minor GC cannot undo:
    separate padding blocks allocated between hot ones are dropped or
    moved, and OCaml 5.1 has no contended-atomic allocation.

    Words are read and written with plain loads and stores. A row's
    owner writes it without a barrier; another thread reading it gets a
    racy but untorn value. *)

type t

val create : max_threads:int -> width:int -> int -> t
(** [create ~max_threads ~width v]: [max_threads] rows of [width]
    slots, every word set to [v]. Raises [Invalid_argument] unless both
    counts are positive. *)

val block : t -> int array
(** The whole block, guard words included. Thread [tid]'s slot [i] is
    [block.(base t tid + i)]. *)

val base : t -> int -> int
(** [base t tid]: index of thread [tid]'s slot 0 in {!block}. Raises
    [Invalid_argument] unless [0 <= tid < max_threads]. *)
