(* Single-threaded replays below the data structures: the Reclaimer
   engine's pass cost, era-span fast path and orphan hand-off
   ([--fig seg]), and the allocator's block circulation ([--fig alloc]).
   Every cell does a fixed amount of work on one domain, so a sweep
   measures the path itself rather than a parallel speedup. *)

open Pop_harness
module Smr_config = Pop_core.Smr_config
module Smr_stats = Pop_core.Smr_stats
module Reclaimer = Pop_core.Reclaimer
module Counters = Pop_core.Counters
module Heap = Pop_sim.Heap
module Clock = Pop_runtime.Clock

(* A cell is a JSON field list from the start: the list written to
   BENCH_<fig>.json is the one the tables and the best-of selections
   read, so each field is named once. *)
type cell = (string * Json.t) list

let num (c : cell) k = Json.to_number (List.assoc k c)
let cells cs = Json.List (List.map (fun c -> Json.Obj c) cs)

(* One (header, field, decimals) per column; ints ignore the decimals. *)
let cells_table columns (cs : cell list) =
  let text c (_, k, dp) =
    match List.assoc k c with Json.Float f -> Printf.sprintf "%.*f" dp f | v -> Json.to_string v
  in
  Report.table
    ~header:(List.map (fun (h, _, _) -> h) columns)
    ~rows:(List.map (fun c -> List.map (text c) columns) cs)

(* Best-of-[reps] per configuration, keeping the cell with the smallest
   [key]. The repetitions are interleaved across the sweep: each cell is
   a millisecond-scale wall measurement on a noisy box, and interference
   that outlasts a whole cell (a scheduler tick, another process's
   burst, slow drift in VM steal time) rarely hits the same
   configuration in every repetition, nor biases one end of the sweep. *)
let best_of ~reps ~key cell configs =
  let best = Array.make (List.length configs) None in
  for _ = 1 to reps do
    List.iteri
      (fun i config ->
        let c = cell config in
        match best.(i) with
        | Some prev when num prev key <= num c key -> ()
        | _ -> best.(i) <- Some c)
      configs
  done;
  Array.to_list (Array.map Option.get best)

(* ------------------------------------------------------------------ *)
(* Engine replays: pass cost and era span vs covered backlog           *)
(* ------------------------------------------------------------------ *)

type rig = {
  heap : unit Heap.t;
  counters : Counters.t;
  eng : unit Reclaimer.t;
  rl : unit Reclaimer.local;
  hub : Pop_runtime.Softsignal.t;
}

(* A private engine with size-triggered passes off: every pass in a
   replay is one the replay runs itself. *)
let engine ~threads =
  let scfg = { (Smr_config.default ~max_threads:threads ()) with reclaim_freq = 1 lsl 30 } in
  let heap = Heap.create ~max_threads:threads ~payload:(fun _ -> ()) () in
  let counters = Counters.create threads in
  (heap, counters, Reclaimer.create scfg ~heap ~counters)

(* One thread's retire list on a private engine. *)
let rig () =
  let heap, counters, eng = engine ~threads:2 in
  let rl = Reclaimer.register eng ~tid:0 ~scratch_slots:8 in
  { heap; counters; eng; rl; hub = Pop_runtime.Softsignal.create ~max_threads:1 }

let stats r = Counters.snapshot r.counters ~hub:r.hub ~epoch:0

(* Retire [count] fresh nodes; the i-th (from 1) gets [era i]. *)
let retire_batch r count ~birth ~era =
  for i = 1 to count do
    let n = Heap.alloc r.heap ~tid:0 ~birth_era:birth in
    n.Heap.retire_era <- era i;
    Reclaimer.retire r.rl n
  done

(* Build [covered] surviving nodes with [cover], in [uncovered]-sized
   batches so every setup pass, like every measured pass, touches
   O(U) blocks and the max_scan_blocks stat reflects steady state rather
   than one warm-up flush proportional to C. Returns the timed pass:
   retire [uncovered] nodes with [doom], invalidate the snapshot, run
   [scan] and check that it freed exactly those nodes (freed-set
   parity). *)
let replay r ~fig ~covered ~uncovered ~cover ~doom ~scan =
  let rec fill remaining =
    if remaining > 0 then begin
      let b = min uncovered remaining in
      cover b;
      Reclaimer.invalidate r.eng;
      ignore (scan ~force:false);
      fill (remaining - b)
    end
  in
  fill covered;
  fun ~force ->
    doom uncovered;
    Reclaimer.invalidate r.eng;
    let t0 = Clock.now () in
    let freed = scan ~force in
    let dt = Clock.elapsed t0 in
    if freed <> uncovered then
      failwith
        (Printf.sprintf "fig %s: freed-set parity broken (freed %d, expected %d)" fig freed
           uncovered);
    dt

(* Warm the node pools and block freelists, call [warmed], then report
   the minimum of 16 per-group mean pass times, in ns. One pass is only
   microseconds long, so a single timed pass sits on the clock's
   granularity and one GC slice inside a mean over all rounds would
   dominate it; groups of passes amortize the quantization. The pass
   does identical work every round, so the fastest group is the cost
   with the least unrelated interference (GC slices, VM preemption):
   the right statistic for a flatness claim on a noisy single core. *)
let fastest_group_ns ?(warmed = ignore) ~rounds pass =
  for _ = 1 to max 10 (rounds / 10) do
    ignore (pass ())
  done;
  warmed ();
  let groups = 16 in
  let per_group = max 1 (rounds / groups) in
  let samples =
    Array.init groups (fun _ ->
        let acc = ref 0.0 in
        for _ = 1 to per_group do
          acc := !acc +. pass ()
        done;
        !acc /. float_of_int per_group)
  in
  Array.sort Float.compare samples;
  samples.(0) *. 1e9

(* Engine-level trace replay at freed-set parity: on top of [covered]
   permanently reserved nodes (retire_era 0, [keep] = era 0), every
   measured pass retires [uncovered] doomed nodes (era 1) and frees
   exactly those. A non-forced fresh pass filters only the open blocks
   plus the rescan quota, so its cost must track U, not C; the forced
   column re-filters the whole covered prefix and shows what every pass
   used to cost before the block-list watermark. *)
let seg_cell ~rounds (covered, uncovered) =
  let r = rig () in
  let keep n = n.Heap.retire_era = 0 in
  let pass =
    replay r ~fig:"seg" ~covered ~uncovered
      ~cover:(fun b -> retire_batch r b ~birth:0 ~era:(fun _ -> 0))
      ~doom:(fun b -> retire_batch r b ~birth:0 ~era:(fun _ -> 1))
      ~scan:(fun ~force ->
        Reclaimer.scan ~force ~kind:Reclaimer.Plain ~collect:(fun _ -> 0) ~except:min_int ~keep
          r.rl)
  in
  let fresh_ns = fastest_group_ns ~rounds (fun () -> pass ~force:false) in
  let s_fresh = stats r in
  let forced_ns = fastest_group_ns ~rounds (fun () -> pass ~force:true) in
  let s_forced = stats r in
  [
    ("covered", Json.Int covered);
    ("uncovered", Int uncovered);
    ("freed_per_pass", Int uncovered);
    ("fresh_ns_per_pass", Float fresh_ns);
    ("forced_ns_per_pass", Float forced_ns);
    ("fresh_max_scan_blocks", Int s_fresh.Smr_stats.max_scan_blocks);
    ("forced_max_scan_blocks", Int s_forced.Smr_stats.max_scan_blocks);
    ("segments_recycled", Int s_forced.Smr_stats.segments_recycled);
  ]

(* The era-interval pass through [Reclaimer.scan_eras], with eras
   deliberately spanning blocks: every covered node was born in era 0
   and retires in a distinct era >= 1000, every doomed node lives in
   [10, 10 + i), and the single reserved era is 5 — inside every
   covered lifespan, outside every doomed one. So one stamp probe keeps
   each rescanned covered block whole (Keep_block) and frees each
   doomed open block whole (Free_block) even though no two nodes share
   a retire era; only a block mixing both populations falls back to
   per-node probes. Fresh-pass cost must stay flat as C grows 16x. The
   block counters cover the timed groups only. *)
let era_cell ~rounds (covered, uncovered) =
  let r = rig () in
  let reserved_era = 5 and next_era = ref 1000 in
  let pass =
    replay r ~fig:"seg (era)" ~covered ~uncovered
      ~cover:(fun b ->
        retire_batch r b ~birth:0 ~era:(fun _ ->
            incr next_era;
            !next_era - 1))
      ~doom:(fun b -> retire_batch r b ~birth:10 ~era:(fun i -> 10 + (i mod 500)))
      ~scan:(fun ~force ->
        Reclaimer.scan_eras ~force ~kind:Reclaimer.Plain
          ~collect:(fun scratch ->
            scratch.(0) <- reserved_era;
            1)
          ~except:min_int r.rl)
  in
  let s0 = ref (stats r) in
  let ns =
    fastest_group_ns ~warmed:(fun () -> s0 := stats r) ~rounds (fun () -> pass ~force:false)
  in
  let s0 = !s0 and s1 = stats r in
  [
    ("covered", Json.Int covered);
    ("uncovered", Int uncovered);
    ("freed_per_pass", Int uncovered);
    ("fresh_ns_per_pass", Float ns);
    ("block_keeps", Int (s1.Smr_stats.block_keeps - s0.Smr_stats.block_keeps));
    ("block_skips", Int (s1.Smr_stats.block_skips - s0.Smr_stats.block_skips));
    ("stale_stamps", Int s1.Smr_stats.stale_stamps);
  ]

(* ------------------------------------------------------------------ *)
(* Donor churn: hand-off throughput vs donor count                     *)
(* ------------------------------------------------------------------ *)

(* Fixed total work (N retire+donate+adopt+free node hand-offs) split
   across D donor contexts on distinct tids, interleaved with one
   adopter draining the sharded orphanage. Total work is identical at
   every D, and throughput must stay flat as the same work is split
   across more donors — each donor donates into its own stripe, so
   adding donors adds no per-donor serialization (the old single-lock
   orphanage funnelled every donate and adopt through one line;
   cross-thread lock safety is covered by the concurrent donate/adopt
   test). [splice_moves] is total node copies minus the donors' original
   retire pushes: donate and adopt splice whole block lists, so it must
   be exactly 0. *)
let churn_cell ~total donors =
  let heap, c, eng = engine ~threads:16 in
  let hub = Pop_runtime.Softsignal.create ~max_threads:1 in
  let batch = 64 in
  let rounds = total / (batch * donors) in
  let goal = rounds * batch * donors in
  let donor_locals =
    Array.init donors (fun i -> Reclaimer.register eng ~tid:(i + 1) ~scratch_slots:8)
  in
  let adopter = Reclaimer.register eng ~tid:0 ~scratch_slots:8 in
  let freed = ref 0 in
  (* The adopter drains once per 512 donated nodes at every D, so its
     fixed per-scan cost (stripe walk, pass bookkeeping) is amortized
     identically across the sweep and the cells compare donate/adopt
     cost alone. *)
  let adopt_every = 512 in
  let donated_since = ref 0 in
  let t0 = Clock.now () in
  for _ = 1 to rounds do
    Array.iter
      (fun l ->
        (* Alloc from pool 0 — the adopter frees with tid 0, so the
           replay recycles one pool instead of growing the heap. *)
        for _ = 1 to batch do
          Reclaimer.retire l (Heap.alloc heap ~tid:0 ~birth_era:0)
        done;
        Reclaimer.donate l)
      donor_locals;
    donated_since := !donated_since + (batch * donors);
    if !donated_since >= adopt_every then begin
      donated_since := 0;
      freed :=
        !freed + Reclaimer.scan_plain ~kind:Reclaimer.Plain ~keep:(fun _ -> false) adopter
    end
  done;
  freed :=
    !freed + Reclaimer.scan_plain ~kind:Reclaimer.Plain ~keep:(fun _ -> false) adopter;
  let dt = Clock.elapsed t0 in
  if !freed <> goal then
    failwith (Printf.sprintf "fig seg (churn): freed %d of %d" !freed goal);
  if Reclaimer.orphans_pending eng <> 0 then failwith "fig seg (churn): orphans left";
  let donor_moves =
    Array.fold_left (fun acc l -> acc + Reclaimer.node_moves l) 0 donor_locals
  in
  let s = Counters.snapshot c ~hub ~epoch:0 in
  [
    ("donors", Json.Int donors);
    ("nodes", Int goal);
    ("ns_total", Float (dt *. 1e9));
    ("handoff_mops", Float (float_of_int goal /. dt /. 1e6));
    ("splice_moves", Int (donor_moves + Reclaimer.node_moves adopter - goal));
    ("donated", Int s.Smr_stats.orphans_donated);
    ("adopted", Int s.Smr_stats.orphans_adopted);
  ]

(* BENCH_seg.json: the pass-cost replay, the era-span replay and the
   donor-churn sweep, three differently-shaped cell arrays under one
   keyed object. *)
let fig_seg (sc : Experiments.scale) =
  let full = sc.duration > 1.0 in
  let rounds = if full then 400 else 120 in
  Report.section
    "Segmented retire buffers: ns per reclamation pass vs covered backlog (engine replay; \
     every measured pass frees exactly U nodes)";
  (* Keyed on the fresh pass: the flatness claim. *)
  let pass =
    best_of ~reps:3 ~key:"fresh_ns_per_pass" (seg_cell ~rounds)
      [ (4096, 512); (16384, 512); (65536, 512); (16384, 128); (16384, 2048) ]
  in
  cells_table
    [
      ("covered C", "covered", 0); ("uncovered U", "uncovered", 0);
      ("fresh ns/pass", "fresh_ns_per_pass", 0); ("forced ns/pass", "forced_ns_per_pass", 0);
      ("fresh max blk", "fresh_max_scan_blocks", 0);
      ("forced max blk", "forced_max_scan_blocks", 0);
      ("blocks recycled", "segments_recycled", 0);
    ]
    pass;
  Report.section
    "Era-stamped blocks: ns per era-interval pass vs covered backlog (16x sweep, eras span \
     blocks; covered blocks kept and doomed blocks freed on one stamp probe)";
  let era =
    best_of ~reps:3 ~key:"fresh_ns_per_pass" (era_cell ~rounds)
      [ (512, 512); (1024, 512); (2048, 512); (4096, 512); (8192, 512) ]
  in
  cells_table
    [
      ("covered C", "covered", 0); ("uncovered U", "uncovered", 0);
      ("fresh ns/pass", "fresh_ns_per_pass", 0); ("block keeps", "block_keeps", 0);
      ("block skips", "block_skips", 0); ("stale stamps", "stale_stamps", 0);
    ]
    era;
  Report.section
    "Sharded orphanage: donate/adopt hand-off throughput vs donor count (fixed total work; \
     flat = no serialization point, splice moves must be 0)";
  let total = if full then 1 lsl 17 else 1 lsl 15 in
  (* A throwaway cell warms the process (code paths, allocator, GC ramp). *)
  ignore (churn_cell ~total:(total / 4) 1);
  let churn = best_of ~reps:5 ~key:"ns_total" (churn_cell ~total) [ 1; 2; 4; 8 ] in
  cells_table
    [
      ("donors", "donors", 0); ("nodes", "nodes", 0); ("handoff Mops", "handoff_mops", 2);
      ("splice moves", "splice_moves", 0); ("donated", "donated", 0);
      ("adopted", "adopted", 0);
    ]
    churn;
  Json.Obj [ ("pass_cost", cells pass); ("era_span", cells era); ("donor_churn", cells churn) ]

(* ------------------------------------------------------------------ *)
(* Constant-time allocator: ns/op vs thread count                      *)
(* ------------------------------------------------------------------ *)

let alloc_cell_of heap ~threads ~ops ~dt =
  [
    ("threads", Json.Int threads);
    ("ops", Int ops);
    ("ns_per_op", Float (dt *. 1e9 /. float_of_int ops));
    ("block_grabs", Int (Heap.block_grabs heap));
    ("block_returns", Int (Heap.block_returns heap));
    ("pool_blocks", Int (Heap.pool_blocks heap));
    ("uaf", Int (Heap.uaf_count heap));
    ("double_free", Int (Heap.double_free_count heap));
  ]

(* One unmeasured [round] grows the pools once; the measured [rounds]
   then recycle the same nodes. Returns their wall time. *)
let time_rounds ~rounds round =
  round ();
  let t0 = Clock.now () in
  for _ = 1 to rounds do
    round ()
  done;
  Clock.elapsed t0

(* Fixed total work split across T thread contexts: an op is one
   [alloc] or one [free], and total ops are identical at every T. A
   balanced context allocates a block-sized batch and frees it straight
   back, so it cycles its own two local blocks and never touches the
   shared pool: ns/op must stay flat as T grows, with grabs = returns =
   0. *)
let alloc_balanced_cell ~total threads =
  let heap = Heap.create ~max_threads:threads ~payload:(fun _ -> ()) () in
  let batch = Heap.block_size heap in
  let scratch = Array.make batch (Heap.sentinel heap) in
  let cycle tid =
    for i = 0 to batch - 1 do
      scratch.(i) <- Heap.alloc heap ~tid ~birth_era:0
    done;
    for i = 0 to batch - 1 do
      Heap.free heap ~tid scratch.(i)
    done
  in
  let rounds = max 1 (total / (2 * batch * threads)) in
  let dt =
    time_rounds ~rounds (fun () ->
        for tid = 0 to threads - 1 do
          cycle tid
        done)
  in
  alloc_cell_of heap ~threads ~ops:(2 * batch * threads * rounds) ~dt

(* Producer/consumer imbalance: the first half of the contexts only
   allocate, the second half free whole batches back with [free_block].
   Producer pools run dry and grab blocks from the shared pool;
   consumer pools overflow and return them — the block circulation the
   shared pool exists for (grabs and returns must both be nonzero for
   T >= 2). T = 1 degenerates to one context playing both roles and
   stays local. *)
let alloc_imbalanced_cell ~total threads =
  let heap = Heap.create ~max_threads:threads ~payload:(fun _ -> ()) () in
  let batch = Heap.block_size heap in
  let producers = max 1 (threads / 2) in
  let consumer p = if threads = 1 then 0 else producers + (p mod (threads - producers)) in
  let scratch = Array.make batch (Heap.sentinel heap) in
  let hand p =
    for i = 0 to batch - 1 do
      scratch.(i) <- Heap.alloc heap ~tid:p ~birth_era:0
    done;
    Heap.free_block heap ~tid:(consumer p) scratch
  in
  let rounds = max 1 (total / (2 * batch * producers)) in
  let dt =
    time_rounds ~rounds (fun () ->
        for p = 0 to producers - 1 do
          hand p
        done)
  in
  alloc_cell_of heap ~threads ~ops:(2 * batch * producers * rounds) ~dt

(* Reclaimer-in-the-loop churn: every context retires a batch from its
   own pool and donates it; one adopter's keep-none pass adopts the
   stripes and frees everything back through the engine's block paths
   ([free_block] only). Nodes circulate donor pool -> shared pool ->
   adopter pool, so orphan adoption rides the same block hand-off. An
   op is one retire-to-free node trip. *)
let alloc_churn_cell ~total threads =
  let heap, _, eng = engine ~threads in
  let locals = Array.init threads (fun tid -> Reclaimer.register eng ~tid ~scratch_slots:8) in
  let adopter = locals.(0) in
  let batch = 64 in
  let round () =
    Array.iteri
      (fun tid l ->
        for _ = 1 to batch do
          Reclaimer.retire l (Heap.alloc heap ~tid ~birth_era:0)
        done;
        Reclaimer.donate l)
      locals;
    ignore (Reclaimer.scan_plain ~kind:Reclaimer.Plain ~keep:(fun _ -> false) adopter)
  in
  let rounds = max 1 (total / (batch * threads)) in
  let dt = time_rounds ~rounds round in
  alloc_cell_of heap ~threads ~ops:(batch * threads * rounds) ~dt

(* BENCH_alloc.json: three thread sweeps under one keyed object, same
   shape discipline as BENCH_seg.json. *)
let fig_alloc (sc : Experiments.scale) =
  Report.section
    "Constant-time allocator: ns per alloc/free op vs thread count (fixed total work; \
     balanced contexts never touch the shared pool, imbalance circulates whole blocks)";
  let total = if sc.duration > 1.0 then 1 lsl 19 else 1 lsl 17 in
  let sweep cell = best_of ~reps:5 ~key:"ns_per_op" (cell ~total) [ 1; 2; 4; 8 ] in
  ignore (alloc_balanced_cell ~total:(total / 4) 2);
  let balanced = sweep alloc_balanced_cell in
  let imbalanced = sweep alloc_imbalanced_cell in
  let churn = sweep alloc_churn_cell in
  let table name cs =
    Report.section (Printf.sprintf "alloc: %s" name);
    cells_table
      [
        ("threads", "threads", 0); ("ops", "ops", 0); ("ns/op", "ns_per_op", 1);
        ("block grabs", "block_grabs", 0); ("block returns", "block_returns", 0);
        ("pool blocks", "pool_blocks", 0); ("uaf", "uaf", 0); ("dfree", "double_free", 0);
      ]
      cs
  in
  table "balanced (alloc/free pairs, local blocks only)" balanced;
  table "imbalanced (producers alloc, consumers free_block)" imbalanced;
  table "churn (retire + donate/adopt through the reclaimer)" churn;
  Json.Obj
    [ ("balanced", cells balanced); ("imbalanced", cells imbalanced); ("churn", cells churn) ]
