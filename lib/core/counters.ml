open Pop_runtime

type t = {
  retired : Striped.t;
  freed : Striped.t;
  reclaim_passes : Striped.t;
  pop_passes : Striped.t;
  restarts : Striped.t;
  scan_skips : Striped.t;
  snapshot_reuses : Striped.t;
  retire_segments : Striped.t;
  segments_recycled : Striped.t;
  seg_slots : Striped.t;
  seg_nodes : Striped.t;
  scan_blocks : Striped.t;
  block_skips : Striped.t;
  block_keeps : Striped.t;
  stale_stamps : Striped.t;
  orphans_donated : Striped.t;
  orphans_adopted : Striped.t;
  pause_ns : Striped.t;
  unreclaimed_hw : Striped.t;
}

let create n =
  {
    retired = Striped.create n;
    freed = Striped.create n;
    reclaim_passes = Striped.create n;
    pop_passes = Striped.create n;
    restarts = Striped.create n;
    scan_skips = Striped.create n;
    snapshot_reuses = Striped.create n;
    retire_segments = Striped.create n;
    segments_recycled = Striped.create n;
    seg_slots = Striped.create n;
    seg_nodes = Striped.create n;
    scan_blocks = Striped.create n;
    block_skips = Striped.create n;
    block_keeps = Striped.create n;
    stale_stamps = Striped.create n;
    orphans_donated = Striped.create n;
    orphans_adopted = Striped.create n;
    pause_ns = Striped.create n;
    unreclaimed_hw = Striped.create n;
  }

let retire t ~tid = Striped.incr t.retired tid

let free t ~tid n = Striped.add t.freed tid n

let reclaim_pass t ~tid = Striped.incr t.reclaim_passes tid

let pop_pass t ~tid = Striped.incr t.pop_passes tid

let restart t ~tid = Striped.incr t.restarts tid

let scan_skip t ~tid = Striped.incr t.scan_skips tid

let snapshot_reuse t ~tid = Striped.incr t.snapshot_reuses tid

let segment t ~tid = Striped.incr t.retire_segments tid

let segment_recycle t ~tid = Striped.incr t.segments_recycled tid

let seg_slots_add t ~tid n = if n <> 0 then Striped.add t.seg_slots tid n

let seg_nodes_add t ~tid n = if n <> 0 then Striped.add t.seg_nodes tid n

(* Each slot is single-writer ([tid] only scans its own buffer), so a
   read-compare-set max needs no CAS loop. *)
let note_scan_blocks t ~tid n =
  if n > Striped.get t.scan_blocks tid then Striped.set t.scan_blocks tid n

(* Single-writer max like [note_scan_blocks]: only [tid] runs [tid]'s
   reclamation passes, so read-compare-set suffices. *)
let note_pause t ~tid ns = if ns > Striped.get t.pause_ns tid then Striped.set t.pause_ns tid ns

let block_skip t ~tid = Striped.incr t.block_skips tid

let block_keep t ~tid = Striped.incr t.block_keeps tid

let stale_stamp t ~tid = Striped.incr t.stale_stamps tid

let orphan_donate t ~tid n = if n > 0 then Striped.add t.orphans_donated tid n

let orphan_adopt t ~tid n = if n > 0 then Striped.add t.orphans_adopted tid n

let unreclaimed t = Striped.sum t.retired - Striped.sum t.freed

(* High-watermark of the racy retired-minus-freed sum, sampled by each
   thread at the entry of its own reclamation passes (single-writer max
   into its own stripe, like [note_pause]). Scan-time sampling is the
   honest choice: it is exactly when a scheme decides what it cannot yet
   free, so a stalled reservation shows up as a growing watermark while
   a healthy scheme's stays near its reclaim threshold. *)
let note_unreclaimed t ~tid =
  let now = unreclaimed t in
  if now > Striped.get t.unreclaimed_hw tid then Striped.set t.unreclaimed_hw tid now

let snapshot ?hs ?heap t ~hub ~epoch =
  let retired = Striped.sum t.retired and freed = Striped.sum t.freed in
  let handshake_timeouts, suspects, quarantine_rounds =
    match hs with
    | None -> (0, 0, 0)
    | Some hs ->
        ( Handshake.timeout_count hs,
          Handshake.suspect_count hs,
          Handshake.quarantine_round_count hs )
  in
  let block_grabs, block_returns, pool_blocks =
    match heap with
    | None -> (0, 0, 0)
    | Some h ->
        (Pop_sim.Heap.block_grabs h, Pop_sim.Heap.block_returns h, Pop_sim.Heap.pool_blocks h)
  in
  let seg_slots = Striped.sum t.seg_slots and seg_nodes = Striped.sum t.seg_nodes in
  {
    Smr_stats.retired;
    freed;
    reclaim_passes = Striped.sum t.reclaim_passes;
    pop_passes = Striped.sum t.pop_passes;
    pings = Softsignal.pings_sent hub;
    publishes = Softsignal.handler_runs hub;
    scan_skips = Striped.sum t.scan_skips;
    snapshot_reuses = Striped.sum t.snapshot_reuses;
    retire_segments = Striped.sum t.retire_segments;
    segments_recycled = Striped.sum t.segments_recycled;
    (* Occupied fraction of the block capacity currently in service;
       0 when no scheme instance holds any segment block. *)
    segment_occupancy =
      (if seg_slots <= 0 then 0 else 100 * max 0 seg_nodes / seg_slots);
    max_scan_blocks = max 0 (Striped.max_value t.scan_blocks);
    restarts = Striped.sum t.restarts;
    handshake_timeouts;
    suspects;
    quarantine_rounds;
    block_skips = Striped.sum t.block_skips;
    block_keeps = Striped.sum t.block_keeps;
    stale_stamps = Striped.sum t.stale_stamps;
    orphans_donated = Striped.sum t.orphans_donated;
    orphans_adopted = Striped.sum t.orphans_adopted;
    block_grabs;
    block_returns;
    pool_blocks;
    max_pause_ns = max 0 (Striped.max_value t.pause_ns);
    epoch;
    unreclaimed = retired - freed;
    (* The watermark can lag the live value (it is only refreshed at
       pass entry), so fold the snapshot-time figure in too. *)
    max_unreclaimed =
      max (retired - freed) (max 0 (Striped.max_value t.unreclaimed_hw));
    violations = 0;
  }
