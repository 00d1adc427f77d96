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
          the retire list reaches [pop_mult * reclaim_freq]. *)
  ping_timeout_spins : int;
      (** Backoff attempts {!Handshake.ping_and_wait} spends per
          non-responsive peer before giving up on its publish and
          falling back to the conservative timeout path (the paper's
          signals cannot be ignored, so it has no analogue; see
          DESIGN.md "Bounded handshake"). With the default backoff
          schedule 64 attempts is roughly 100 ms of wall time. *)
  reclaim_scale : int;
      (** Adaptive reclaim threshold: when positive, a pass is triggered
          at [max reclaim_freq (reclaim_scale * max_threads * max_hp)]
          pending retires — Michael-style amortization, which keeps the
          per-retire scan cost O(1) amortized and the per-thread garbage
          O(scale · T · H) regardless of the flat [reclaim_freq]. 0 (the
          default) falls back to the flat [reclaim_freq] threshold. *)
  segment_size : int;
      (** Capacity of one retire-buffer segment block in the
          {!Reclaimer}'s Blelloch–Wei segmented lists (BW21). Larger
          blocks amortize link maintenance over more retires; smaller
          ones recycle (and hence bound fragmentation) sooner. *)
  segment_rescan : int;
      (** How many covered segment blocks a fresh (non-forced) pass
          re-vets against the new snapshot, in addition to the open
          segment. 0 leaves covered garbage to forced passes only; the
          default 2 bounds covered-prefix staleness without giving up
          the pass's O(uncovered blocks) cost. *)
  suspect_after : int;
      (** Consecutive stale-heartbeat handshake timeouts before the
          {!Handshake} failure detector quarantines a peer. Raise it on
          oversubscribed schedulers, where a descheduled-but-alive
          thread can freeze its heartbeat for a full scheduling
          quantum (see EXPERIMENTS.md "Failure-detector sweep"). *)
  probe_backoff_cap : int;
      (** Cap, in handshake rounds, on the exponential backoff between
          re-probes of a quarantined peer. Lower values re-admit a
          recovered peer sooner at the price of more pings wasted on a
          genuinely dead one. *)
}

val default : ?max_threads:int -> unit -> t
(** Paper-flavoured defaults scaled to this machine: [max_hp = 8],
    [reclaim_freq = 512], [epoch_freq = 32], [pop_mult = 2],
    [ping_timeout_spins = 64], [reclaim_scale = 0] (flat threshold),
    [segment_size = 64], [segment_rescan = 2], [suspect_after = 3],
    [probe_backoff_cap = 64]. There is no barrier cost knob: every
    fence a scheme pays is the one OCaml itself executes ([Atomic.set]
    and read-modify-writes are [xchg]/[lock]-prefixed on x86). A knob
    no scheme reads, such as the harness's busy-wait budget, is not
    here but with its reader. *)

val validate : t -> unit
(** Raise [Invalid_argument] on nonsensical settings. *)
