(** One generator per figure of the paper's evaluation (see DESIGN.md's
    per-experiment index). Each prints paper-style series: throughput,
    peak garbage (retire-list backlog) and peak resident nodes, per
    algorithm and thread count. *)

type scale = {
  duration : float;  (** Seconds per cell. *)
  threads_list : int list;
  size_hml : int;
  size_ll : int;
  size_ht : int;
  size_dgt : int;
  size_abt : int;
  reclaim_freq : int;
  lrr_sizes : int list;  (** Figure 4 list sizes. *)
  lrr_threads : int;
  lrr_reclaim_freq : int;  (** Figure 4 uses a small retire threshold. *)
  kv_rate : float;
      (** Aggregate open-loop arrival rate (ops/s) for the KV cells —
          deliberately below saturation so percentiles reflect service
          time plus reclamation pauses, not overload queueing. *)
  kv_theta : float;  (** Zipfian skew for the KV cells (YCSB 0.99). *)
}

val quick : scale
(** A few minutes total; the default scale of [popbench --fig]. *)

val full : scale
(** Longer runs, more threads, larger structures. *)

val size_of : scale -> Dispatch.ds_kind -> int

val fig_mixed :
  ?check:bool ->
  title:string ->
  mix:Workload.mix ->
  dss:Dispatch.ds_kind list ->
  smrs:Dispatch.smr_kind list ->
  scale ->
  Runner.result list
(** Generic workload sweep behind Figures 1, 2, 3, 5–9 and 10–11.
    With [check] (default true), flags inconsistent cells in the output. *)

val fig_update_heavy : scale -> Runner.result list
(** Figures 1–2 (+ appendix 5–9 update-heavy panels): all five
    structures, update-heavy. *)

val fig_read_heavy : scale -> Runner.result list
(** Figure 3: ABT and DGT, read-heavy. *)

val fig_read_heavy_appendix : scale -> Runner.result list
(** Appendix Figures 5–9 read-heavy panels: remaining structures. *)

val fig_long_running_reads : scale -> Runner.result list
(** Figure 4: long-running reads on HML; half the threads are full-range
    readers, half update near the head; small retire threshold. Reports
    the read-throughput ratio vs NR. *)

val fig_crystalline : scale -> Runner.result list
(** Appendix Figures 10–11: HML and HMHT including Hyaline-1. *)

val fig_kv : scale -> Runner.result list
(** Production KV-service cells (ROADMAP item 1): a memcached-style
    get/set/cas/delete front-end over the hash table and the skip list,
    Zipfian keys ([kv_theta]), open-loop Poisson arrivals ([kv_rate])
    and per-op latency percentiles (p50/p99/p999/max, microseconds)
    next to the longest reclamation-pass pause. All cells run
    sanitized, so the committed JSON doubles as a safety check
    ([violations] and [uaf] must be 0). *)

val tournament_smrs : Dispatch.smr_kind list
(** The default tournament entrants: the paper's ping-based algorithms,
    the classic baselines, Hyaline-1 and Hyaline-1S. *)

val fig_tournament :
  ?smrs:Dispatch.smr_kind list ->
  ?scenarios:string list ->
  scale ->
  (string * Runner.result) list
(** The adversarial robustness tournament: a seeded scenario matrix —
    [stall-poll], [stall-deaf], [crash], [churn], [oversub], [kv-skew]
    — crossed with every scheme in [smrs] (default {!tournament_smrs}).
    These scenarios are the repo's only definitions of the stall, deaf
    and churn shapes. Every cell runs sanitized; each is scored on
    throughput, bounded garbage ([max_unreclaimed]) and recovery time
    ([recovery_ns]: from disruption end until throughput regains 90% of
    its pre-disruption rate); the table also shows handshake timeouts.
    Returns [("scenario/scheme", result)] pairs ready for
    {!Runner.cells_json}, whose per-cell ["scenario"] descriptor makes
    the emitted file self-describing. [scenarios] filters the matrix by
    name (unknown names are ignored) — the tier-1 smoke runs a 2-scheme
    x 3-scenario slice this way. *)
