(** Configuration shared by all reclamation algorithms. *)

type t = {
  max_threads : int;  (** Thread ids run over [0 .. max_threads-1]. *)
  max_hp : int;  (** Reservation slots per thread (MAX_HP / MAX_HE). *)
  reclaim_freq : int;
      (** Retire-list threshold that triggers a reclamation pass
          ([reclaimFreq] in Algorithms 1–6; 24K in the paper's main
          experiments, 2K in the long-running-reads experiment). *)
  epoch_freq : int;
      (** Operations (EBR/EpochPOP) or allocations (IBR) between global
          epoch advances ([epochFreq]). *)
  pop_mult : int;
      (** [C] in Algorithm 3: EpochPOP falls back to publish-on-ping when
          the retire list reaches [pop_mult * reclaim_freq]. The default
          1 pings at the first epoch pass a lagging peer blocked: a peer
          descheduled inside an operation pins the epoch floor for many
          epochs, so a larger C lets garbage pile up to C thresholds
          while buying only ~1/C fewer pings under a stall. *)
  ping_timeout_spins : int;
      (** Backoff attempts a {!Handshake.round} spends per
          non-responsive peer before giving up on its publish and
          falling back to the conservative timeout path (the paper's
          signals cannot be ignored, so it has no analogue; see
          DESIGN.md "Bounded handshake"). With the default backoff
          schedule 64 attempts is roughly 100 ms of wall time. *)
  segment_size : int;
      (** Capacity of one retire-buffer segment block in the
          {!Reclaimer}'s Blelloch–Wei segmented lists (BW21). Larger
          blocks amortize link maintenance over more retires; smaller
          ones recycle (and hence bound fragmentation) sooner. *)
  segment_rescan : int;
      (** How many covered segment blocks a fresh (non-forced) pass
          re-vets against the new snapshot beyond the blocks it splices
          onto the covered list: a pass that splices in [b] blocks
          re-vets up to [segment_rescan + b] older ones, so the covered
          list drains even when a scheme's own reservation pins most of
          every open segment (he-pop's era; see EXPERIMENTS.md "What
          sets he-pop's peak garbage"). The default 2 is the drain rate
          once the splices stop; the pass stays O(uncovered blocks). *)
  suspect_after : int;
      (** Consecutive stale-heartbeat handshake timeouts before the
          {!Handshake} failure detector quarantines a peer. Raise it on
          oversubscribed schedulers, where a descheduled-but-alive
          thread can freeze its heartbeat for a full scheduling
          quantum (see EXPERIMENTS.md "Failure-detector sweep"). *)
}

val default : ?max_threads:int -> unit -> t
(** Paper-flavoured defaults scaled to this machine: [max_hp = 8],
    [reclaim_freq = 512], [epoch_freq = 32], [pop_mult = 1],
    [ping_timeout_spins = 64], [segment_size = 64], [segment_rescan = 2],
    [suspect_after = 3]. There is no barrier cost knob: every
    fence a scheme pays is the one OCaml itself executes ([Atomic.set]
    and read-modify-writes are [xchg]/[lock]-prefixed on x86). A knob
    no scheme reads, such as the harness's busy-wait budget, is not
    here but with its reader. *)

val validate : t -> unit
(** Raise [Invalid_argument] on nonsensical settings. *)
