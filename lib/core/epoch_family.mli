(** The epoch skeleton shared by ebr and epoch-pop.

    The paper defines EpochPOP as EBR plus one fallback (Algorithm 3,
    line 26): when an epoch pass leaves too much garbage, ping the peers
    and free whatever no published reservation holds. This module owns
    the records and every cold path of both. The one difference is
    {!t.fallback}, fixed at {!create}: it decides whether {!register}
    installs the POP handler, {!retire} runs the POP pass and {!flush}
    runs the forced one. Each scheme keeps its own [read], [end_op] and
    [name] as top-level code over the concrete {!tctx}, so no closure or
    functor parameter sits on the read path.

    One epoch-pass rule serves both. A pass runs at each threshold
    multiple, and every [segment_size] retires above the threshold, so a
    pass a lagging peer blocked is retried soon after the floor moves.
    It is skipped, and counted in [scan_skips], while the floor has not
    risen since the last pass: that pass's survivors were retired at or
    above its floor and later retirees at or above the epoch it read, so
    it would free nothing. *)

type 'a t = {
  cfg : Smr_config.t;
  hub : Pop_runtime.Softsignal.t;
  heap : 'a Pop_sim.Heap.t;
  res : Reservations.t;  (** Private node-id reservations, published on ping. *)
  reserved_epoch : Pop_runtime.Striped.t;  (** Per-operation epoch announcements. *)
  hs : Handshake.t;  (** Never runs a round without [fallback]; its counters then read 0. *)
  eng : 'a Reclaimer.t;  (** Retire buffers and scans; it owns the statistics [stats] reports. *)
  epoch : int Atomic.t;
  fallback : bool;
}

type 'a tctx = {
  g : 'a t;
  tid : int;
  port : Pop_runtime.Softsignal.port;
  pending : int Atomic.t;  (** The port's ping flag, tested inline by [read]. *)
  rows : int array;  (** Every private row ({!Reservations.local_block}). *)
  base : int;  (** Index of this thread's slot 0 in [rows]. *)
  my_epoch : int Atomic.t;  (** This thread's announcement cell. *)
  rl : 'a Reclaimer.local;
  mutable stuck_epoch : int;  (** Lowest timed-out announcement at the last POP collect. *)
  mutable epoch_floor : int;  (** The last epoch pass's floor, capped by its epoch. *)
  mutable op_counter : int;
}

val create : fallback:bool -> Smr_config.t -> Pop_runtime.Softsignal.t -> 'a Pop_sim.Heap.t -> 'a t

val register : 'a t -> tid:int -> 'a tctx

val start_op : 'a tctx -> unit

val poll : 'a tctx -> unit

val check : 'a tctx -> 'a Pop_sim.Heap.node -> unit

val alloc : 'a tctx -> 'a Pop_sim.Heap.node

val retire : 'a tctx -> 'a Pop_sim.Heap.node -> unit

val free_unpublished : 'a tctx -> 'a Pop_sim.Heap.node -> unit

val enter_write_phase : 'a tctx -> 'a Pop_sim.Heap.node array -> unit

val flush : 'a tctx -> unit
(** Advance the epoch and run an unguarded epoch pass. *)

val deregister : 'a tctx -> unit

val unreclaimed : 'a t -> int

val stats : 'a t -> Smr_stats.t
