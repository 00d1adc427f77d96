(** Per-thread statistic counters shared by all SMR implementations. *)

type t

val create : int -> t
(** [create max_threads]. *)

val retire : t -> tid:int -> unit

val free : t -> tid:int -> int -> unit
(** [free t ~tid n] records [n] nodes freed. *)

val reclaim_pass : t -> tid:int -> unit

val pop_pass : t -> tid:int -> unit

val restart : t -> tid:int -> unit

val scan_skip : t -> tid:int -> unit
(** A triggered pass that skipped rescanning already-checked nodes. *)

val snapshot_reuse : t -> tid:int -> unit
(** A triggered pass served from the cached reservation snapshot. *)

val segment : t -> tid:int -> unit
(** A fresh scan pass sealed a new checked segment of a retire list. *)

val segment_recycle : t -> tid:int -> unit
(** A fully-freed segment block was returned to the block freelist. *)

val seg_slots_add : t -> tid:int -> int -> unit
(** [seg_slots_add t ~tid n] adjusts the number of segment-block slots
    in service by [n] (negative when a block leaves service; no-op when
    [n = 0]). *)

val seg_nodes_add : t -> tid:int -> int -> unit
(** [seg_nodes_add t ~tid n] adjusts the number of retired nodes held in
    segment blocks by [n] (negative on free/drain; no-op when [n = 0]).
    Together with {!seg_slots_add} this yields the snapshot's
    [segment_occupancy] percentage. *)

val note_scan_blocks : t -> tid:int -> int -> unit
(** [note_scan_blocks t ~tid n] records that one of [tid]'s fresh passes
    touched [n] segment blocks; the snapshot reports the max over all
    threads. Each slot is single-writer ([tid] only scans its own
    buffer), so no CAS loop is needed. *)

val note_pause : t -> tid:int -> int -> unit
(** [note_pause t ~tid ns] records that one of [tid]'s reclamation
    passes took [ns] wall-clock nanoseconds; the snapshot reports the
    max over all threads ({!Smr_stats.t.max_pause_ns}). Single-writer
    per slot, like {!note_scan_blocks}. *)

val block_skip : t -> tid:int -> unit
(** An era-interval fast pass freed a whole segment block on one stamp
    probe, without touching its nodes. *)

val block_keep : t -> tid:int -> unit
(** An era-interval fast pass kept a whole segment block on one stamp
    probe, skipping the per-node keep closure. *)

val stale_stamp : t -> tid:int -> unit
(** A node's era interval fell outside its block's stamps — an engine
    invariant violation surfaced through {!Smr_stats.t.stale_stamps}
    and the sanitizer. *)

val orphan_stripe_contention : t -> tid:int -> unit
(** A donor or adopter hit a held orphanage-stripe lock. *)

val orphan_donate : t -> tid:int -> int -> unit
(** [orphan_donate t ~tid n] records [n] retired nodes donated to the
    {!Reclaimer} orphanage by departing thread [tid] (no-op when
    [n = 0]). *)

val orphan_adopt : t -> tid:int -> int -> unit
(** [orphan_adopt t ~tid n] records [n] orphaned nodes adopted into
    [tid]'s retire buffer (no-op when [n = 0]). *)

val unreclaimed : t -> int
(** Retired minus freed, racily summed. *)

val note_unreclaimed : t -> tid:int -> unit
(** Sample the racy {!unreclaimed} sum into [tid]'s high-watermark
    stripe (single-writer max, like {!note_pause}). Call at the entry of
    each reclamation pass; the snapshot reports the max over all threads
    as {!Smr_stats.t.max_unreclaimed}. *)

val snapshot :
  ?hs:Handshake.t ->
  ?heap:'a Pop_sim.Heap.t ->
  t ->
  hub:Pop_runtime.Softsignal.t ->
  epoch:int ->
  Smr_stats.t
(** [?hs] supplies the handshake whose timeout and failure-detector
    counters ([handshake_timeouts]/[suspects]/[quarantine_rounds]) the
    snapshot should report; omit it for schemes without a ping round
    (the fields read 0). [?heap]
    supplies the simulated heap whose allocator hand-off counters
    ([block_grabs]/[block_returns]/[pool_blocks]) the snapshot should
    report; every scheme passes its own heap here. *)
