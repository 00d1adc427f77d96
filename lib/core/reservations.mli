(** Per-thread reservation slot tables.

    A reservation is an [int]: a node id for pointer-based schemes
    (HP, HazardPtrPOP) or an era for timestamp-based ones (HE,
    HazardEraPOP, EBR, IBR). Each thread owns one row of [slots] cells in
    two tables:

    - the {e local} table: plain (unfenced) writes, readable only by the
      owner, each row on cache lines of its own — except for the membarrier-style HPAsym scheme, which reads
      peers' local rows racily after a barrier round;
    - the {e shared} table: single-writer multi-reader atomic cells, the
      [sharedReservations] array of Algorithms 1–5.

    Publish-on-ping readers write only the local row on the traversal
    path; {!publish} copies the row to the shared table when a reclaimer
    pings. Eager schemes (HP, HE) write the shared table directly with
    {!set_shared} (a sequentially consistent store — the per-read fence
    the paper eliminates). *)

type t

val create : max_threads:int -> slots:int -> none:int -> t
(** [none] is the "no reservation" value; it must never collide with a
    real node id or era. *)

val slots : t -> int

val max_threads : t -> int

val none : t -> int

val set_local : t -> tid:int -> slot:int -> int -> unit
(** Plain store; no fence. The traversal-path write of POP. *)

val local_block : t -> int array
(** Every thread's private row in one {!Pop_runtime.Padded} block, so
    no two threads' rows share a cache line. Hot read paths cache it
    with {!local_base} in their thread context and write slot [i] of
    their row at [local_base + i] with a plain store. *)

val local_base : t -> tid:int -> int
(** Index of [tid]'s slot 0 in {!local_block}. *)

val shared_row : t -> tid:int -> int Atomic.t array
(** The owner's shared row, cached by eager (HP/HE) read paths. *)

val get_local : t -> tid:int -> slot:int -> int

val clear_local : t -> tid:int -> unit
(** Reset the whole local row to [none] (CLEAR in Algorithm 1). *)

val publish : t -> tid:int -> unit
(** Copy the local row to the shared row (PUBLISHRESERVATIONS,
    Algorithm 2 line 40). Runs in the owner thread's handler. *)

val set_shared : t -> tid:int -> slot:int -> int -> unit
(** Eager fenced publication (original HP/HE read path). *)

val get_shared : t -> tid:int -> slot:int -> int

val clear_shared : t -> tid:int -> unit

val collect_shared : t -> int array -> int
(** [collect_shared t scratch] copies every shared entry (all threads,
    all slots, including [none] values) into [scratch] and returns the
    count written. [scratch] must hold [max_threads * slots] entries. *)

val collect_local : t -> int array -> int
(** Same, but reading peers' local rows with plain racy loads; only
    meaningful after a barrier round (HPAsym). *)

val append_local_row : t -> tid:int -> into:int array -> pos:int -> int
(** [append_local_row t ~tid ~into ~pos] copies [tid]'s local row into
    [into.(pos..)] with plain racy loads and returns the next free
    position. Used by the bounded handshake's conservative fallback: a
    peer that timed out never published, so the reclaimer reads its
    private row directly and treats every value found as reserved (see
    DESIGN.md "Bounded handshake" for why this racy read is safe). *)
