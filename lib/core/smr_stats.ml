type t = {
  retired : int;
  freed : int;
  reclaim_passes : int;
  pop_passes : int;
  scan_skips : int;
  snapshot_reuses : int;
  retire_segments : int;
  segments_recycled : int;
  segment_occupancy : int;
  max_scan_blocks : int;
  pings : int;
  publishes : int;
  restarts : int;
  handshake_timeouts : int;
  suspects : int;
  quarantine_rounds : int;
  block_skips : int;
  block_keeps : int;
  stale_stamps : int;
  orphans_donated : int;
  orphans_adopted : int;
  orphan_stripe_contention : int;
  block_grabs : int;
  block_returns : int;
  pool_blocks : int;
  max_pause_ns : int;
  epoch : int;
  unreclaimed : int;
  max_unreclaimed : int;
  violations : int;
}

let zero =
  {
    retired = 0;
    freed = 0;
    reclaim_passes = 0;
    pop_passes = 0;
    scan_skips = 0;
    snapshot_reuses = 0;
    retire_segments = 0;
    segments_recycled = 0;
    segment_occupancy = 0;
    max_scan_blocks = 0;
    pings = 0;
    publishes = 0;
    restarts = 0;
    handshake_timeouts = 0;
    suspects = 0;
    quarantine_rounds = 0;
    block_skips = 0;
    block_keeps = 0;
    stale_stamps = 0;
    orphans_donated = 0;
    orphans_adopted = 0;
    orphan_stripe_contention = 0;
    block_grabs = 0;
    block_returns = 0;
    pool_blocks = 0;
    max_pause_ns = 0;
    epoch = 0;
    unreclaimed = 0;
    max_unreclaimed = 0;
    violations = 0;
  }

(* The single record-to-rows function every consumer (pp, JSON, report
   tables) is derived from. The exhaustive record pattern is the point:
   adding a field to [t] without extending this list is a compile error
   (warning 9 is fatal in the dev profile), so a stat can never again be
   collected but silently left out of reports, as was once possible with
   [handshake_timeouts]. *)
let to_alist
    {
      retired;
      freed;
      reclaim_passes;
      pop_passes;
      scan_skips;
      snapshot_reuses;
      retire_segments;
      segments_recycled;
      segment_occupancy;
      max_scan_blocks;
      pings;
      publishes;
      restarts;
      handshake_timeouts;
      suspects;
      quarantine_rounds;
      block_skips;
      block_keeps;
      stale_stamps;
      orphans_donated;
      orphans_adopted;
      orphan_stripe_contention;
      block_grabs;
      block_returns;
      pool_blocks;
      max_pause_ns;
      epoch;
      unreclaimed;
      max_unreclaimed;
      violations;
    } =
  [
    ("retired", retired);
    ("freed", freed);
    ("unreclaimed", unreclaimed);
    ("max_unreclaimed", max_unreclaimed);
    ("reclaim_passes", reclaim_passes);
    ("pop_passes", pop_passes);
    ("scan_skips", scan_skips);
    ("snapshot_reuses", snapshot_reuses);
    ("retire_segments", retire_segments);
    ("segments_recycled", segments_recycled);
    ("segment_occupancy", segment_occupancy);
    ("max_scan_blocks", max_scan_blocks);
    ("pings", pings);
    ("publishes", publishes);
    ("restarts", restarts);
    ("handshake_timeouts", handshake_timeouts);
    ("suspects", suspects);
    ("quarantine_rounds", quarantine_rounds);
    ("block_skips", block_skips);
    ("block_keeps", block_keeps);
    ("stale_stamps", stale_stamps);
    ("orphans_donated", orphans_donated);
    ("orphans_adopted", orphans_adopted);
    ("orphan_stripe_contention", orphan_stripe_contention);
    ("block_grabs", block_grabs);
    ("block_returns", block_returns);
    ("pool_blocks", pool_blocks);
    ("max_pause_ns", max_pause_ns);
    ("epoch", epoch);
    ("violations", violations);
  ]

let pp fmt t =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
    (fun fmt (k, v) -> Format.fprintf fmt "%s=%d" k v)
    fmt (to_alist t)
