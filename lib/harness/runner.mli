(** Multi-threaded benchmark driver: spawns one domain per thread,
    prefills the structure to half its key range, runs a timed
    {!Workload.load}, samples memory, and checks consistency
    afterwards. *)

type stall_spec = {
  stall_tid : int;  (** Which worker stalls. *)
  stall_after : float;  (** Seconds into the run. *)
  stall_for : float;  (** Stall duration. *)
  stall_polling : bool;  (** Whether the stalled thread serves pings. *)
}

type churn_event =
  | Exit  (** Clean departure: flush, deregister, release the tid. *)
  | Crash
      (** Die mid-operation: reservations stay raised, the retire
          buffer is abandoned, the soft-signal slot stays deaf forever.
          The slot is never reused. *)
  | Join  (** A fresh worker claims a cleanly released tid. *)

(** A seeded schedule of membership events: [exits + crashes + joins]
    events are shuffled deterministically (from [cfg.seed]) and fired
    one per [churn_period] seconds starting at [churn_start]. An event
    with no eligible slot — a join before any exit has completed, or a
    leave that would drop the last running worker — is retried at the
    next sample instead of dropped, and does not block the events
    shuffled behind it. *)
type churn_spec = {
  exits : int;
  crashes : int;
  joins : int;
  churn_start : float;
  churn_period : float;
}

type cfg = {
  ds : Dispatch.ds_kind;
  smr : Dispatch.smr_kind;
  threads : int;
  duration : float;
  key_range : int;
  load : Workload.load;
      (** What the workers run: a mixed set workload (Figures 1–3,
          5–11), Figure 4's long-running reads, or the open-loop KV
          service, whose cells alone record per-op latency. See
          {!Workload.load}. *)
  reclaim_freq : int;
  epoch_freq : int;
  pop_mult : int;
  stall : stall_spec option;
  churn : churn_spec option;
  ping_timeout_spins : int;
      (** Handshake spin budget per non-responsive peer; see
          {!Pop_core.Smr_config.t.ping_timeout_spins}. *)
  suspect_after : int;
      (** Consecutive stale-heartbeat timeouts before the failure
          detector quarantines a peer; see
          {!Pop_core.Smr_config.t.suspect_after}. *)
  segment_size : int;
      (** Retire-buffer segment-block capacity; see
          {!Pop_core.Smr_config.t.segment_size}. *)
  drop_ping : float;
      (** Probability a soft signal is lost in flight (fault injection;
          0 disables). See {!Pop_runtime.Softsignal.inject_faults}. *)
  delay_poll : float;  (** Probability a poll defers a pending ping. *)
  seed : int;
  sanitize : bool;
      (** Wrap the scheme in the {!Pop_check.Smr_check} typestate
          sanitizer (counting mode); the run's violation total lands in
          [result.smr.violations]. *)
}

val default_cfg : cfg
(** HML / EpochPOP / 2 threads / 0.5 s / 2K keys / update-heavy. *)

type result = {
  r_cfg : cfg;
  total_ops : int;
  read_ops : int;
  update_ops : int;
  mops : float;  (** Million operations per second, all threads. *)
  read_mops : float;
  pre_mops : float;
      (** Mean throughput up to the last 10 ms sample before the
          disruption (stall or churn window) began; 0 when the run had
          no disruption or no pre-disruption sample. *)
  recovery_ns : int;
      (** Nanoseconds from disruption end until aggregate throughput
          (over a trailing ~30 ms sample window) regained 90% of
          [pre_mops]. 0 when the run had no disruption; when
          [recovered] is false it is the (finite) time from disruption
          end to run end — or 0 if the disruption outlived the run. *)
  recovered : bool;
      (** Whether the 90% threshold was reached before the run ended
          (vacuously true without a disruption). *)
  max_live : int;  (** Peak heap nodes alive (reachable + garbage). *)
  max_unreclaimed : int;
      (** The sampled peak: the largest [unreclaimed] the main domain
          read in its 10 ms sampling loop. This is the robustness
          tournament's bounded-garbage score (the tournament table,
          [benchcheck tournament] and the robustness tests read it). It
          can miss a short spike between samples; the pass-entry peak
          is {!Pop_core.Smr_stats.t.max_unreclaimed}, under [smr]. *)
  final_unreclaimed : int;
  final_live : int;
  uaf : int;
  double_free : int;
  final_size : int;
  expected_size : int;  (** Prefill + net successful inserts. *)
  invariants_ok : bool;
  invariant_error : string;
  exited : int;  (** Workers that left cleanly mid-run (churn [Exit]s). *)
  crashed : int;  (** Workers that died mid-operation (churn [Crash]es). *)
  joined : int;  (** Fresh workers spawned onto recycled tids. *)
  smr : Pop_core.Smr_stats.t;
  violations_by_category : (string * int) list;
      (** Sanitizer tallies keyed by {!Pop_check.Smr_check} category
          label ([read_outside_op], [check_unreserved], ...). Empty
          when [cfg.sanitize] is false. *)
  latency : Pop_runtime.Histogram.t;
      (** Per-op latencies (ns) merged across workers, one sample per
          operation under a [Kv] load; empty otherwise. *)
}

val run : cfg -> result

val consistent : result -> bool
(** Sizes match, invariants hold, and no UAF / double free occurred. *)

val to_json : ?label:string -> result -> string
(** One result as a flat JSON object: a self-describing ["scenario"]
    descriptor (seed, threads vs cores, stall/churn shapes, load shape
    — everything needed to reproduce the cell from the emitted file
    alone), throughput ([mops]), recovery scores ([pre_mops],
    [recovery_ns], [recovered]), memory peaks
    ([max_unreclaimed]), safety counters ([uaf], [double_free]),
    latency percentiles in microseconds ([p50]/[p99]/[p999]/[max],
    zeros outside a [Kv] load) with the worst reclamation-pass pause
    ([max_pause]), amortization stats ([frees_per_pass],
    [snapshot_reuse_ratio]), the sanitizer's per-category tallies under
    ["violations_by_category"] (an empty object on unsanitized runs)
    and the full {!Pop_core.Smr_stats} record under ["smr"], printed
    by {!Json.to_string}. *)

val cells_json : (string * result) list -> Json.t
(** A JSON array of labelled {!to_json} cells: the shape of
    [BENCH_kv.json], [BENCH_tournament.json] and [popbench --json].
    {!Json.to_file} prints it one cell per line. *)
