(** Multi-threaded benchmark driver: spawns one domain per thread,
    prefills the structure to half its key range, runs a timed mixed
    workload, samples memory, and checks consistency afterwards. *)

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
  mix : Workload.mix;
  reclaim_freq : int;
  epoch_freq : int;
  pop_mult : int;
  max_hp : int;
  ht_load : int;
  ab_branch : int;
  long_running_reads : bool;
      (** Figure-4 mode: the first half of the threads run full-range
          contains only; the second half update keys in
          [\[0, near_head_span)]. *)
  near_head_span : int;
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
  kv : bool;
      (** Run the latency-instrumented KV-service loop
          ({!Workload.kv_op} over the SET) instead of the plain
          throughput loop; [mix] is ignored in favour of [kv_mix]. *)
  kv_mix : Workload.kv_mix;
  zipf_theta : float;
      (** Zipfian skew of KV key popularity ([0.99] = YCSB default);
          [<= 0.] keeps keys uniform. Only read in KV mode. *)
  arrival_rate : float;
      (** Aggregate open-loop arrival rate in ops/second, split evenly
          across workers as independent Poisson streams. Latency then
          runs from *scheduled* arrival to completion, so queueing
          delay counts. [0.] = closed loop (latency = service time).
          Only read in KV mode. *)
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
  max_unreclaimed : int;  (** Peak retire-list backlog. *)
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
      (** Per-op latencies (ns) merged across workers; empty unless
          [cfg.kv]. *)
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
    zeros outside KV mode) with the worst reclamation-pass pause
    ([max_pause]), amortization stats ([frees_per_pass],
    [snapshot_reuse_ratio]), the sanitizer's per-category tallies under
    ["violations_by_category"] (an empty object on unsanitized runs)
    and the full {!Pop_core.Smr_stats} record under ["smr"], printed
    by {!Json.to_string}. *)

val cells_json : (string * result) list -> Json.t
(** A JSON array of labelled {!to_json} cells: the shape of
    [BENCH_kv.json], [BENCH_tournament.json] and [popbench --json].
    {!Json.to_file} prints it one cell per line. *)
