(** Arrays of per-thread atomic counters.

    Each slot is its own [int Atomic.t] block, so the slots are distinct
    atomic words, not distinct cache lines: the minor GC promotes them
    wherever the major heap has room, and blocks made one after another
    usually end up next to each other. Two threads updating neighbouring
    slots can therefore contend for one line. That is acceptable for
    counters updated off the hot path; a single-writer word written on
    every operation belongs in {!Padded} instead, as a plain store on a
    line of its own. *)

type t
(** A fixed-size array of single-writer multi-reader counters. *)

val create : int -> t
(** [create n] makes [n] counters, all zero. *)

val length : t -> int

val get : t -> int -> int

val cell : t -> int -> int Atomic.t
(** Direct access to slot [i]'s cell, for hot paths that want to skip
    the array indexing. *)

val set : t -> int -> int -> unit

val incr : t -> int -> unit
(** Sequentially-consistent increment of slot [i]. *)

val add : t -> int -> int -> unit

val sum : t -> int
(** Racy sum across all slots (each slot read atomically). *)

val max_value : t -> int
(** Racy maximum across all slots. *)
