(** Tests for the shared retire-buffer + scan engine ({!Pop_core.Reclaimer}).

    The equivalence tests replay random retire/reserve/scan traces
    through the engine and through a reimplementation of the seed's
    always-fresh per-scheme logic, and require identical frees at every
    forced pass. The invalidation tests pin the snapshot-cache contract:
    a generation bump forces the next pass fresh, and a reservation held
    since before a node's retirement is never violated, cache or no
    cache. *)

open Pop_runtime
open Pop_core
module Heap = Pop_sim.Heap
open Tu

let cfg ?(reclaim_freq = 4) ?(max_threads = 2) ?(max_hp = 4) ?(segment_size = 64) () =
  { (Smr_config.default ()) with Smr_config.max_threads; max_hp; reclaim_freq; segment_size }

let make ?reclaim_freq ?max_threads ?max_hp ?segment_size () =
  let cfg = cfg ?reclaim_freq ?max_threads ?max_hp ?segment_size () in
  let heap = Heap.create ~max_threads:cfg.Smr_config.max_threads ~payload:(fun _ -> ()) () in
  let eng = Reclaimer.create cfg ~heap in
  (heap, eng, Reclaimer.register eng ~tid:0 ~scratch_slots:64)

let stats eng =
  let hub = Softsignal.create ~max_threads:1 in
  Reclaimer.stats eng ~hub ~epoch:0

(* Collect closure over a mutable reservation table; flips [called] so a
   test can observe whether a pass went fresh or was served from cache. *)
let table_collect table called scratch =
  called := true;
  let k = ref 0 in
  Hashtbl.iter
    (fun id () ->
      scratch.(!k) <- id;
      incr k)
    table;
  !k

let keep_reserved rl n = Id_set.mem (Reclaimer.snapshot rl) n.Heap.id

(* --- snapshot cache + invalidation --- *)

let cache_and_invalidate () =
  let heap, eng, rl = make ~reclaim_freq:4 () in
  let table = Hashtbl.create 8 in
  let called = ref false in
  let scan ?force () =
    called := false;
    Reclaimer.scan ?force ~kind:Reclaimer.Plain
      ~collect:(table_collect table called)
      ~except:(-1) ~keep:(keep_reserved rl) rl
  in
  let nodes = Array.init 4 (fun _ -> Heap.alloc heap ~tid:0 ~birth_era:0) in
  Hashtbl.replace table nodes.(1).Heap.id ();
  Array.iter (Reclaimer.retire rl) nodes;
  Alcotest.(check bool) "due at threshold" true (Reclaimer.due rl);
  Alcotest.(check int) "fresh pass frees unreserved" 3 (scan ());
  Alcotest.(check bool) "collect ran" true !called;
  Alcotest.(check int) "survivor pending" 1 (Reclaimer.pending rl);
  (* Same generation, suffix below threshold: served from the cache. *)
  Alcotest.(check int) "cached pass frees nothing" 0 (scan ());
  Alcotest.(check bool) "collect skipped" false !called;
  let s = stats eng in
  Alcotest.(check int) "snapshot reuse counted" 1 s.Smr_stats.snapshot_reuses;
  Alcotest.(check int) "scan skip counted" 1 s.Smr_stats.scan_skips;
  Alcotest.(check int) "one segment so far" 1 s.Smr_stats.retire_segments;
  (* A reservation published after a generation bump is honoured: the
     bump forces the next pass fresh, and the fresh collect sees it. *)
  let late = Heap.alloc heap ~tid:0 ~birth_era:0 in
  let doomed = Heap.alloc heap ~tid:0 ~birth_era:0 in
  Hashtbl.replace table late.Heap.id ();
  Reclaimer.retire rl late;
  Reclaimer.retire rl doomed;
  Reclaimer.invalidate eng;
  Alcotest.(check int) "post-bump pass is fresh, frees the doomed" 1 (scan ());
  Alcotest.(check bool) "post-bump collect ran" true !called;
  Alcotest.(check bool) "late reservation honoured" true (Heap.is_live late);
  (* Force always collects, even with a warm cache. *)
  ignore (scan ~force:true ());
  Alcotest.(check bool) "forced pass collects" true !called;
  Alcotest.(check int) "no uaf" 0 (Heap.uaf_count heap);
  Alcotest.(check int) "no double free" 0 (Heap.double_free_count heap)

(* A node reserved since before its retirement survives any interleaving
   of retires, unreserves of other nodes, invalidations, cached and
   forced scans. This is the soundness property the cached snapshot must
   not break. *)
let invalidation_property =
  QCheck2.Test.make ~name:"reclaimer: pre-retirement reservation always honoured" ~count:200
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 0 99))
    (fun ops ->
      let heap, eng, rl = make ~reclaim_freq:3 () in
      let table = Hashtbl.create 8 in
      let called = ref false in
      let scan ?force () =
        ignore
          (Reclaimer.scan ?force ~kind:Reclaimer.Plain
             ~collect:(table_collect table called)
             ~except:(-1) ~keep:(keep_reserved rl) rl)
      in
      (* The tracked node: reserved first, then retired. *)
      let tracked = Heap.alloc heap ~tid:0 ~birth_era:0 in
      Hashtbl.replace table tracked.Heap.id ();
      Reclaimer.retire rl tracked;
      let unreserved = Queue.create () in
      List.iter
        (fun op ->
          match op mod 5 with
          | 0 | 1 ->
              (* Retire a fresh node, transiently reserved half the time. *)
              let n = Heap.alloc heap ~tid:0 ~birth_era:0 in
              if op mod 2 = 0 then begin
                Hashtbl.replace table n.Heap.id ();
                Queue.push n.Heap.id unreserved
              end;
              Reclaimer.retire rl n
          | 2 ->
              if not (Queue.is_empty unreserved) then
                Hashtbl.remove table (Queue.pop unreserved)
          | 3 -> Reclaimer.invalidate eng
          | _ -> scan ())
        ops;
      scan ~force:true ();
      Heap.is_live tracked
      && Heap.uaf_count heap = 0
      && Heap.double_free_count heap = 0)

(* --- old-vs-new equivalence --- *)

(* The seed's per-scheme logic, reimplemented directly: every pass
   collects the table and frees every retired node not reserved in it.
   No cache, no segments. *)
module Model = struct
  type t = { mutable retired : int list; mutable freed : int }

  let create () = { retired = []; freed = 0 }

  let retire m id = m.retired <- id :: m.retired

  let scan m table =
    let keep, drop = List.partition (fun id -> Hashtbl.mem table id) m.retired in
    m.retired <- keep;
    m.freed <- m.freed + List.length drop
end

(* Replay one random trace through both. Between forced passes the
   engine may lag the model (cache-served passes free nothing); at every
   forced pass both free everything unreserved, so the pending count and
   cumulative free count must agree exactly there, and the survivor id
   sets must agree at the end. Reservations follow the protocol: an id
   is only reserved before its node is retired. *)
let equivalence_trace ?segment_size seed steps =
  let heap, eng, rl = make ~reclaim_freq:4 ?segment_size () in
  let table = Hashtbl.create 32 in
  let called = ref false in
  let model = Model.create () in
  let rng = Rng.make seed in
  let scan ?force () =
    ignore
      (Reclaimer.scan ?force ~kind:Reclaimer.Plain
         ~collect:(table_collect table called)
         ~except:(-1) ~keep:(keep_reserved rl) rl)
  in
  let reserved_retired = ref [] in
  let check_sync what =
    Model.scan model table;
    scan ~force:true ();
    Alcotest.(check int) (what ^ ": pending") (List.length model.Model.retired)
      (Reclaimer.pending rl);
    Alcotest.(check int) (what ^ ": freed") model.Model.freed (Heap.freed_total heap)
  in
  for step = 1 to steps do
    match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        let n = Heap.alloc heap ~tid:0 ~birth_era:0 in
        if Rng.bool rng then begin
          Hashtbl.replace table n.Heap.id ();
          reserved_retired := n.Heap.id :: !reserved_retired
        end;
        Reclaimer.retire rl n;
        Model.retire model n.Heap.id
    | 4 | 5 -> (
        (* Unreserve a random previously reserved id. *)
        match !reserved_retired with
        | [] -> ()
        | id :: rest ->
            Hashtbl.remove table id;
            reserved_retired := rest)
    | 6 -> Reclaimer.invalidate eng
    | 7 | 8 ->
        (* Unsynchronized passes: the model is always fresh, the engine
           may serve from cache — allowed to diverge until the next
           forced pass. *)
        Model.scan model table;
        scan ()
    | _ -> check_sync (Printf.sprintf "step %d" step)
  done;
  check_sync "final";
  let survivors =
    Reclaimer.take_all rl Array.to_list
    |> List.map (fun n -> n.Heap.id)
    |> List.sort Int.compare
  in
  Alcotest.(check (list int)) "final survivor ids"
    (List.sort Int.compare model.Model.retired)
    survivors;
  Alcotest.(check int) "no uaf" 0 (Heap.uaf_count heap);
  Alcotest.(check int) "no double free" 0 (Heap.double_free_count heap)

let equivalence_seed_1 () = equivalence_trace 101 400

let equivalence_seed_2 () = equivalence_trace 202 400

let equivalence_seed_3 () = equivalence_trace 303 400

(* The same freed-set parity at block boundaries: segment sizes down to
   one node per block exercise every overflow/underflow edge (a retire
   that links a block, a filter that empties one, a splice whose lists
   end in partial blocks) while the model stays oblivious. *)
let equivalence_tiny_segments () =
  List.iter (fun seg -> equivalence_trace ~segment_size:seg 707 250) [ 1; 2; 3; 5 ]

(* --- segment blocks --- *)

(* Exact accounting across the block boundary: [n] retires fill
   ceil(n/seg) blocks; a forced scan frees exactly the unreserved nodes;
   draining the survivors hands every block to the freelist. *)
let block_boundary_property =
  QCheck2.Test.make ~name:"reclaimer: block-boundary retire/free accounting" ~count:100
    QCheck2.Gen.(pair (int_range 1 6) (int_range 0 70))
    (fun (seg, n) ->
      let heap, eng, rl = make ~reclaim_freq:4 ~segment_size:seg () in
      let table = Hashtbl.create 8 in
      let called = ref false in
      let nodes = Array.init n (fun _ -> Heap.alloc heap ~tid:0 ~birth_era:0) in
      Array.iteri (fun i nd -> if i mod 3 = 0 then Hashtbl.replace table nd.Heap.id ()) nodes;
      Array.iter (Reclaimer.retire rl) nodes;
      let survivors = (n + 2) / 3 in
      let freed =
        Reclaimer.scan ~force:true ~kind:Reclaimer.Plain
          ~collect:(table_collect table called)
          ~except:(-1) ~keep:(keep_reserved rl) rl
      in
      let drained = Reclaimer.take_all rl Fun.id in
      let blocks = (n + seg - 1) / seg in
      let s = stats eng in
      freed = n - survivors
      && Array.length drained = survivors
      && Reclaimer.pending rl = 0
      (* Retiring filled [blocks] blocks and nothing allocated since:
         filter + drain must recycle every one of them. *)
      && Reclaimer.free_blocks rl = blocks
      && s.Smr_stats.segments_recycled = blocks
      (* All blocks are out of service again: occupancy reads 0, and it
         never exceeded 100 (the SmrSan segment invariant). *)
      && s.Smr_stats.segment_occupancy = 0
      && Heap.uaf_count heap = 0
      && Heap.double_free_count heap = 0)

(* The O(1) hand-off claim, verified by counting node moves: donate and
   adopt splice block lists, so neither side copies a single node. Only
   the donor's original pushes (one move per retire) appear. *)
let donate_adopt_zero_moves () =
  let heap, eng, donor = make ~reclaim_freq:1_000_000 () in
  let adopter = Reclaimer.register eng ~tid:1 ~scratch_slots:64 in
  let m = 1000 in
  for _ = 1 to m do
    Reclaimer.retire donor (Heap.alloc heap ~tid:0 ~birth_era:0)
  done;
  Alcotest.(check int) "one move per retire push" m (Reclaimer.node_moves donor);
  Reclaimer.donate donor;
  Alcotest.(check int) "donate copies no node" m (Reclaimer.node_moves donor);
  Alcotest.(check int) "stash holds the batch" m (Reclaimer.orphans_pending eng);
  Alcotest.(check int) "donor empty" 0 (Reclaimer.pending donor);
  (* A keep-all pass adopts the stash: the splice reads no node, and the
     in-place filter moves none (every slot keeps its position). *)
  let freed = Reclaimer.scan_plain ~kind:Reclaimer.Plain ~keep:(fun _ -> true) adopter in
  Alcotest.(check int) "keep-all frees nothing" 0 freed;
  Alcotest.(check int) "adopter holds the batch" m (Reclaimer.pending adopter);
  Alcotest.(check int) "adoption copies no node" 0 (Reclaimer.node_moves adopter);
  let s = stats eng in
  Alcotest.(check int) "donated" m s.Smr_stats.orphans_donated;
  Alcotest.(check int) "adopted" m s.Smr_stats.orphans_adopted;
  (* The batch is still fully freeable after the two splices. *)
  let freed = Reclaimer.scan_plain ~kind:Reclaimer.Plain ~keep:(fun _ -> false) adopter in
  Alcotest.(check int) "drains" m freed;
  Alcotest.(check int) "no double free" 0 (Heap.double_free_count heap)

(* Donate/adopt splices race under churn: three donors hand whole block
   lists through the orphan lock while an adopter drains concurrently.
   Every node is freed exactly once and the adopter never copies one. *)
let concurrent_donate_adopt () =
  let threads = 4 in
  let cfg = cfg ~max_threads:threads ~reclaim_freq:1_000_000 ~segment_size:8 () in
  let heap = Heap.create ~max_threads:threads ~payload:(fun _ -> ()) () in
  let eng = Reclaimer.create cfg ~heap in
  let m = 500 in
  let donor tid () =
    let l = Reclaimer.register eng ~tid ~scratch_slots:8 in
    for _ = 1 to m do
      Reclaimer.retire l (Heap.alloc heap ~tid ~birth_era:0)
    done;
    Reclaimer.donate l
  in
  let adopter () =
    let l = Reclaimer.register eng ~tid:(threads - 1) ~scratch_slots:8 in
    let freed = ref 0 in
    while !freed < 3 * m do
      freed := !freed + Reclaimer.scan_plain ~kind:Reclaimer.Plain ~keep:(fun _ -> false) l;
      Domain.cpu_relax ()
    done;
    (!freed, Reclaimer.node_moves l)
  in
  let donors = Array.init 3 (fun i -> Domain.spawn (donor i)) in
  let ad = Domain.spawn adopter in
  Array.iter Domain.join donors;
  let freed, moves = Domain.join ad in
  Alcotest.(check int) "every donated node freed" (3 * m) freed;
  Alcotest.(check int) "adopter copied no node" 0 moves;
  Alcotest.(check int) "no orphans left" 0 (Reclaimer.orphans_pending eng);
  Alcotest.(check int) "unreclaimed zero" 0 (Reclaimer.unreclaimed eng);
  Alcotest.(check int) "no double free" 0 (Heap.double_free_count heap);
  Alcotest.(check int) "no uaf" 0 (Heap.uaf_count heap)

(* Four threads retire and scan on one engine at once. Each bumps only
   its own stat row with plain stores, so no update is lost: the sums
   are exact once the domains are joined, and the pass count is the sum
   of the passes each thread ran itself. *)
let stat_rows_exact () =
  let threads = 4 and n = 20_000 in
  let cfg = cfg ~max_threads:threads ~reclaim_freq:1_000_000 ~segment_size:8 () in
  let heap = Heap.create ~max_threads:threads ~payload:(fun _ -> ()) () in
  let eng = Reclaimer.create cfg ~heap in
  let ready = Atomic.make 0 in
  let worker tid () =
    let l = Reclaimer.register eng ~tid ~scratch_slots:8 in
    Atomic.incr ready;
    while Atomic.get ready < threads do
      Domain.cpu_relax ()
    done;
    let passes = ref 0 in
    let pass () =
      incr passes;
      ignore (Reclaimer.scan_plain ~kind:Reclaimer.Plain ~keep:(fun _ -> false) l)
    in
    for i = 1 to n do
      Reclaimer.retire l (Heap.alloc heap ~tid ~birth_era:0);
      if i mod 16 = 0 then pass ()
    done;
    pass ();
    !passes
  in
  let domains = Array.init threads (fun tid -> Domain.spawn (worker tid)) in
  let passes = Array.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  let s = stats eng in
  Alcotest.(check int) "retired" (threads * n) s.Smr_stats.retired;
  Alcotest.(check int) "freed" (threads * n) s.Smr_stats.freed;
  Alcotest.(check int) "unreclaimed" 0 (Reclaimer.unreclaimed eng);
  Alcotest.(check int) "passes" passes s.Smr_stats.reclaim_passes

(* Recycled blocks must not pin drained nodes under the GC: [take_all]
   scrubs every slot with the sentinel before a block enters the
   freelist, so once the caller drops the drained array the nodes are
   collectable. *)
let recycled_blocks_do_not_pin () =
  let heap, _, rl = make ~segment_size:4 () in
  let w = Weak.create 1 in
  (* Allocate the tracked node inside a closure so no stack slot keeps
     it alive after the drain drops it. *)
  (fun () ->
    let tracked = Heap.alloc heap ~tid:0 ~birth_era:0 in
    Weak.set w 0 (Some tracked);
    Reclaimer.retire rl tracked;
    for _ = 1 to 6 do
      Reclaimer.retire rl (Heap.alloc heap ~tid:0 ~birth_era:0)
    done)
    ();
  Alcotest.(check bool) "alive while buffered" true (Weak.check w 0);
  (* Drain without freeing (the Hyaline path): the nodes leave the
     blocks, the blocks hit the freelist scrubbed, the array is dropped.
     A freed node would sit in the heap's pool (reachably pooled); a
     drained one has no owner left but a stale block slot. *)
  ignore (Reclaimer.take_all rl Sys.opaque_identity);
  Alcotest.(check bool) "blocks recycled" true (Reclaimer.free_blocks rl >= 2);
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "no recycled block slot pins the node" false (Weak.check w 0)

(* --- scan_plain segment bookkeeping --- *)

(* Epoch-style passes must keep the covered prefix aligned across
   compactions: freeing from the prefix shrinks [checked] so later
   cached decisions stay sound. Observable behaviour: interleaving
   scan_plain with snapshot scans never frees a reserved node and never
   double-frees. *)
let scan_plain_interleaving () =
  let heap, eng, rl = make ~reclaim_freq:4 () in
  let table = Hashtbl.create 8 in
  let called = ref false in
  let era = ref 0 in
  let alloc_retire ~reserve =
    let n = Heap.alloc heap ~tid:0 ~birth_era:0 in
    n.Heap.retire_era <- !era;
    if reserve then Hashtbl.replace table n.Heap.id ();
    Reclaimer.retire rl n;
    n
  in
  let keeper = alloc_retire ~reserve:true in
  for _ = 1 to 3 do
    ignore (alloc_retire ~reserve:false)
  done;
  ignore
    (Reclaimer.scan ~kind:Reclaimer.Plain
       ~collect:(table_collect table called)
       ~except:(-1) ~keep:(keep_reserved rl) rl);
  Alcotest.(check int) "snapshot pass: one survivor" 1 (Reclaimer.pending rl);
  (* Epoch pass that frees from the covered prefix (keeper's era is
     old, but it is the only prefix node and it survives on era). *)
  incr era;
  let young = alloc_retire ~reserve:false in
  let freed =
    Reclaimer.scan_plain ~kind:Reclaimer.Plain
      ~keep:(fun n -> n.Heap.retire_era >= !era || Hashtbl.mem table n.Heap.id)
      rl
  in
  Alcotest.(check int) "epoch pass frees nothing protected" 0 freed;
  Alcotest.(check bool) "keeper alive" true (Heap.is_live keeper);
  Alcotest.(check bool) "young alive" true (Heap.is_live young);
  (* Drop the keeper's reservation; a forced snapshot pass frees it and
     the young node, with the prefix bookkeeping intact. *)
  Hashtbl.remove table keeper.Heap.id;
  Reclaimer.invalidate eng;
  let freed =
    Reclaimer.scan ~force:true ~kind:Reclaimer.Plain
      ~collect:(table_collect table called)
      ~except:(-1) ~keep:(keep_reserved rl) rl
  in
  Alcotest.(check int) "forced pass drains" 2 freed;
  Alcotest.(check int) "empty" 0 (Reclaimer.pending rl);
  Alcotest.(check int) "no double free" 0 (Heap.double_free_count heap)

(* --- era-stamped blocks --- *)

(* Stamp maintenance under random era traces: after any interleaving of
   retires (random eras), era passes (random reserved eras, sometimes
   forced) and donate/adopt hand-offs, every block's stamps equal the
   exact min/max over its surviving slots — push merges, filter
   recomputes, splices move blocks wholesale. [debug_stamp_errors]
   recomputes from the slots, so 0 means the filtered-block and
   splice-merge halves of the property both held; the engine's own
   containment audit ([stale_stamps]) must agree. *)
let stamp_maintenance_property =
  QCheck2.Test.make ~name:"reclaimer: block stamps stay exact min/max over survivors"
    ~count:150
    QCheck2.Gen.(list_size (int_range 1 80) (pair (int_range 0 99) (int_range 0 15)))
    (fun ops ->
      let cfg = cfg ~reclaim_freq:1_000_000 ~segment_size:4 () in
      let heap = Heap.create ~max_threads:2 ~payload:(fun _ -> ()) () in
      let eng = Reclaimer.create cfg ~heap in
      let rl = Reclaimer.register eng ~tid:0 ~scratch_slots:8 in
      let rl2 = Reclaimer.register eng ~tid:1 ~scratch_slots:8 in
      let reserved = ref 0 in
      let scan ?force l =
        Reclaimer.invalidate eng;
        ignore
          (Reclaimer.scan_eras ?force ~kind:Reclaimer.Plain
             ~collect:(fun scratch ->
               scratch.(0) <- !reserved;
               1)
             ~except:(-1) l)
      in
      List.iter
        (fun (op, arg) ->
          match op mod 10 with
          | 0 | 1 | 2 | 3 | 4 ->
              let n = Heap.alloc heap ~tid:0 ~birth_era:(arg mod 8) in
              n.Heap.retire_era <- arg;
              Reclaimer.retire rl n
          | 5 ->
              reserved := arg;
              scan rl
          | 6 ->
              reserved := arg;
              scan ~force:true rl
          | 7 -> Reclaimer.donate rl
          | 8 -> scan rl2 (* adopts rl's donations *)
          | _ ->
              let n = Heap.alloc heap ~tid:0 ~birth_era:0 in
              (* retire_era stays max_int: an unretired-looking node. *)
              Reclaimer.retire rl n)
        ops;
      Reclaimer.debug_stamp_errors rl = 0
      && Reclaimer.debug_stamp_errors rl2 = 0
      && (stats eng).Smr_stats.stale_stamps = 0
      && Heap.double_free_count heap = 0
      && Heap.uaf_count heap = 0)

(* The block-level era fast path settles homogeneous blocks with one
   probe: blocks of doomed nodes are freed without a per-node keep
   ([block_skips]), blocks fully inside a reserved era are kept without
   one ([block_keeps]), and a mixed block falls back to the per-node
   path. Verified against the counters and the freed set. *)
let era_block_fast_path () =
  let heap, eng, rl = make ~reclaim_freq:1_000_000 ~segment_size:4 () in
  let retire ~birth ~retire =
    let n = Heap.alloc heap ~tid:0 ~birth_era:birth in
    n.Heap.retire_era <- retire;
    Reclaimer.retire rl n;
    n
  in
  (* Two full blocks of kept nodes (era 5 inside every lifespan, eras
     spanning blocks), two full blocks of doomed nodes (lifespans all
     past the reserved era). *)
  let kept = Array.init 8 (fun i -> retire ~birth:0 ~retire:(1000 + i)) in
  let doomed = Array.init 8 (fun i -> retire ~birth:10 ~retire:(20 + i)) in
  let scan ?force () =
    Reclaimer.invalidate eng;
    Reclaimer.scan_eras ?force ~kind:Reclaimer.Plain
      ~collect:(fun scratch ->
        scratch.(0) <- 5;
        1)
      ~except:(-1) rl
  in
  Alcotest.(check int) "doomed blocks freed" 8 (scan ());
  let s = stats eng in
  Alcotest.(check bool) "block skips fired" true (s.Smr_stats.block_skips >= 2);
  Alcotest.(check int) "no stale stamps" 0 s.Smr_stats.stale_stamps;
  Array.iter (fun n -> Alcotest.(check bool) "kept alive" true (Heap.is_live n)) kept;
  Array.iter (fun n -> Alcotest.(check bool) "doomed freed" false (Heap.is_live n)) doomed;
  (* A forced pass re-vets the covered kept blocks: whole-block keeps. *)
  Alcotest.(check int) "forced pass keeps the reserved blocks" 0 (scan ~force:true ());
  let s = stats eng in
  Alcotest.(check bool) "block keeps fired" true (s.Smr_stats.block_keeps >= 2);
  (* Move the reservation past every kept lifespan: the whole backlog
     drains. *)
  Reclaimer.invalidate eng;
  let freed =
    Reclaimer.scan_eras ~force:true ~kind:Reclaimer.Plain
      ~collect:(fun scratch ->
        scratch.(0) <- 5000;
        1)
      ~except:(-1) rl
  in
  Alcotest.(check int) "drained" 8 freed;
  Alcotest.(check int) "no double free" 0 (Heap.double_free_count heap);
  Alcotest.(check int) "no uaf" 0 (Heap.uaf_count heap)

(* The interval pass frees exactly the nodes whose lifespan no [lo; hi]
   pair overlaps, whatever its block verdicts settled: random lifespans
   in blocks of 4 (so whole-block frees, whole-block keeps and the
   per-node fallback all occur) against two random pairs, one of them
   sometimes empty ([lo = max_int]). *)
let interval_verdict_property =
  QCheck2.Test.make ~name:"reclaimer: the interval pass frees exactly the unoverlapped lifespans"
    ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 40) (pair (int_range 0 30) (int_range 0 10)))
        (list_repeat 4 (int_range 0 40)))
    (fun (spans, bounds) ->
      let heap, eng, rl = make ~reclaim_freq:1_000_000 ~segment_size:4 () in
      let pair a b = (min a b, max a b) in
      let pairs =
        match bounds with
        | [ a; b; x; y ] -> [ pair a b; (if x > 35 then (max_int, y) else pair x y) ]
        | _ -> assert false
      in
      let nodes =
        List.map
          (fun (birth, len) ->
            let n = Heap.alloc heap ~tid:0 ~birth_era:birth in
            n.Heap.retire_era <- birth + len;
            Reclaimer.retire rl n;
            n)
          spans
      in
      Reclaimer.invalidate eng;
      ignore
        (Reclaimer.scan_intervals ~force:true ~kind:Reclaimer.Plain
           ~collect:(fun scratch ->
             List.iteri
               (fun i (lo, hi) ->
                 scratch.(2 * i) <- lo;
                 scratch.((2 * i) + 1) <- hi)
               pairs;
             4)
           rl);
      let overlapped n =
        List.exists (fun (lo, hi) -> lo <= n.Heap.retire_era && n.Heap.birth_era <= hi) pairs
      in
      List.for_all (fun n -> Heap.is_live n = overlapped n) nodes
      && (stats eng).Smr_stats.stale_stamps = 0
      && Heap.double_free_count heap = 0)

(* A mixed block (kept and doomed nodes sharing one block) must fall
   back to the per-node path: exactly the doomed half is freed and the
   surviving block's stamps are recomputed over the survivors. *)
let era_mixed_block_fallback () =
  let heap, eng, rl = make ~reclaim_freq:1_000_000 ~segment_size:8 () in
  let retire ~birth ~retire =
    let n = Heap.alloc heap ~tid:0 ~birth_era:birth in
    n.Heap.retire_era <- retire;
    Reclaimer.retire rl n;
    n
  in
  let kept = Array.init 4 (fun i -> retire ~birth:0 ~retire:(1000 + i)) in
  let doomed = Array.init 4 (fun i -> retire ~birth:10 ~retire:(20 + i)) in
  Reclaimer.invalidate eng;
  let freed =
    Reclaimer.scan_eras ~kind:Reclaimer.Plain
      ~collect:(fun scratch ->
        scratch.(0) <- 5;
        1)
      ~except:(-1) rl
  in
  Alcotest.(check int) "doomed half freed" 4 freed;
  Array.iter (fun n -> Alcotest.(check bool) "kept alive" true (Heap.is_live n)) kept;
  Array.iter (fun n -> Alcotest.(check bool) "doomed freed" false (Heap.is_live n)) doomed;
  Alcotest.(check int) "stamps recomputed over survivors" 0
    (Reclaimer.debug_stamp_errors rl);
  Alcotest.(check int) "no stale stamps" 0 (stats eng).Smr_stats.stale_stamps

(* Every engine free path hands nodes back at block granularity: the
   per-node filter (Scan_block partition), the era fast path
   (Free_block), and the Hyaline drain ([free_array]) must all go
   through [Heap.free_block]. [Heap.node_free_calls] counts per-node
   [Heap.free] API calls and pins the claim at exactly zero; only
   [retire_now]/[free_unpublished] (not exercised here) may use it. *)
let engine_frees_whole_blocks () =
  let heap, eng, rl = make ~reclaim_freq:1_000_000 ~segment_size:4 () in
  let retire ~birth ~retire_era =
    let n = Heap.alloc heap ~tid:0 ~birth_era:birth in
    n.Heap.retire_era <- retire_era;
    Reclaimer.retire rl n
  in
  (* Per-node filter path: a keep-none scan_plain over mixed blocks. *)
  for _ = 1 to 10 do
    retire ~birth:0 ~retire_era:0
  done;
  let freed = Reclaimer.scan_plain ~kind:Reclaimer.Plain ~keep:(fun _ -> false) rl in
  Alcotest.(check int) "filter path drains" 10 freed;
  (* Era fast path: two homogeneous doomed blocks settled on one probe. *)
  for i = 0 to 7 do
    retire ~birth:10 ~retire_era:(20 + i)
  done;
  Reclaimer.invalidate eng;
  let freed =
    Reclaimer.scan_eras ~force:true ~kind:Reclaimer.Plain
      ~collect:(fun scratch ->
        scratch.(0) <- 5;
        1)
      ~except:(-1) rl
  in
  Alcotest.(check int) "era path drains" 8 freed;
  (* Hyaline path: drain the buffer and free the array wholesale. *)
  for _ = 1 to 6 do
    retire ~birth:0 ~retire_era:0
  done;
  let drained = Reclaimer.take_all rl Fun.id in
  Alcotest.(check int) "drained" 6 (Array.length drained);
  Reclaimer.free_array rl drained;
  Alcotest.(check int) "all frees were batched" 24 (Heap.bulk_freed_total heap);
  Alcotest.(check int) "zero per-node Heap.free calls" 0 (Heap.node_free_calls heap);
  Alcotest.(check int) "no double free" 0 (Heap.double_free_count heap);
  Alcotest.(check int) "no uaf" 0 (Heap.uaf_count heap)

(* Every scrubbed slot holds the engine's one dummy: registering,
   filtering, recycling blocks and draining mint no further sentinel. *)
let one_dummy_per_engine () =
  let heap, eng, rl = make ~reclaim_freq:1_000_000 ~segment_size:4 () in
  let before = (Heap.sentinel heap).Heap.id in
  ignore (Reclaimer.register eng ~tid:1 ~scratch_slots:4);
  for _ = 1 to 3 do
    for _ = 1 to 10 do
      Reclaimer.retire rl (Heap.alloc heap ~tid:0 ~birth_era:0)
    done;
    ignore (Reclaimer.scan_plain ~kind:Reclaimer.Plain ~keep:(fun _ -> false) rl)
  done;
  for _ = 1 to 6 do
    Reclaimer.retire rl (Heap.alloc heap ~tid:0 ~birth_era:0)
  done;
  Reclaimer.take_all rl (Reclaimer.free_array rl);
  Alcotest.(check bool) "blocks recycled" true (Reclaimer.free_blocks rl >= 2);
  Alcotest.(check int) "no sentinel minted in between" 1
    (before - (Heap.sentinel heap).Heap.id)

(* --- covered-list drain --- *)

(* A fresh pass re-vets at least as many covered blocks as it splices
   in. Phase one pins every retired node, so the covered list piles up
   [3 * blocks] fully pinned blocks. Phase two releases them, while each
   pass pins one node per open block until the next pass (a scheme's
   own reservation of its latest retires), so every pass splices
   [blocks] partly pinned blocks in. With the constant quota (2) alone
   the covered list would grow by [blocks - 2] blocks a pass and never
   drain. *)
let covered_blocks_drain () =
  let seg = 4 and blocks = 4 in
  let heap, _, rl = make ~reclaim_freq:(seg * blocks) ~segment_size:seg () in
  let table = Hashtbl.create 64 and called = ref false in
  let pass () =
    ignore
      (Reclaimer.scan ~kind:Reclaimer.Plain ~collect:(table_collect table called)
         ~except:(-1) ~keep:(keep_reserved rl) rl)
  in
  let retire_batch ~pin =
    Array.init (seg * blocks) (fun i ->
        let n = Heap.alloc heap ~tid:0 ~birth_era:0 in
        if pin i then Hashtbl.replace table n.Heap.id ();
        Reclaimer.retire rl n;
        n)
  in
  (* Each node with the incarnation it was retired in: recycling makes
     a freed node live again, but never with the same [seq]. *)
  let pinned =
    List.init 3 (fun _ ->
        let nodes = retire_batch ~pin:(fun _ -> true) in
        pass ();
        Array.map (fun n -> (n, n.Heap.seq)) nodes)
  in
  Alcotest.(check int) "pinned blocks stay covered" (3 * seg * blocks) (Reclaimer.pending rl);
  for _ = 1 to 30 do
    Hashtbl.reset table;
    ignore (retire_batch ~pin:(fun i -> i mod seg = 0));
    pass ()
  done;
  Alcotest.(check bool) "released blocks drained" true
    (List.for_all (Array.for_all (fun (n, seq) -> n.Heap.seq <> seq)) pinned);
  Alcotest.(check int) "only the last pass's pinned nodes remain" blocks (Reclaimer.pending rl);
  Alcotest.(check int) "no uaf" 0 (Heap.uaf_count heap);
  Alcotest.(check int) "no double free" 0 (Heap.double_free_count heap)

(* A fresh pass re-vets the covered list from its youngest blocks: the
   pass's survivors join at the head, so the next pass re-vets them
   before any older block. Ten passes each leave four one-node blocks
   pinned for good (a stalled reader's backlog, 40 blocks); one more
   covers sixteen short-lived pinned nodes, which are then released.
   Oldest-first, the quota would spend the next passes on the backlog
   and the released nodes would wait behind all forty blocks. *)
let youngest_covered_first () =
  let seg = 4 in
  let heap, eng, rl = make ~reclaim_freq:(4 * seg) ~segment_size:seg () in
  let table = Hashtbl.create 64 and called = ref false in
  let pass () =
    Reclaimer.invalidate eng;
    ignore
      (Reclaimer.scan ~kind:Reclaimer.Plain ~collect:(table_collect table called)
         ~except:(-1) ~keep:(keep_reserved rl) rl)
  in
  let retire_batch ~pin =
    Array.init (4 * seg) (fun i ->
        let n = Heap.alloc heap ~tid:0 ~birth_era:0 in
        if pin i then Hashtbl.replace table n.Heap.id ();
        Reclaimer.retire rl n;
        (n, n.Heap.seq))
  in
  for _ = 1 to 10 do
    ignore (retire_batch ~pin:(fun i -> i mod seg = 0));
    pass ()
  done;
  Alcotest.(check int) "pinned backlog" 40 (Reclaimer.pending rl);
  let transients = retire_batch ~pin:(fun _ -> true) in
  pass ();
  Alcotest.(check int) "transients covered" 56 (Reclaimer.pending rl);
  Array.iter (fun (n, _) -> Hashtbl.remove table n.Heap.id) transients;
  for _ = 1 to 2 do
    ignore (retire_batch ~pin:(fun _ -> false));
    pass ()
  done;
  Alcotest.(check bool) "transients freed within two passes" true
    (Array.for_all (fun (n, seq) -> n.Heap.seq <> seq) transients);
  Alcotest.(check int) "only the backlog remains" 40 (Reclaimer.pending rl);
  Alcotest.(check int) "no uaf" 0 (Heap.uaf_count heap);
  Alcotest.(check int) "no double free" 0 (Heap.double_free_count heap)

(* --- sharded orphanage --- *)

(* Distinct donors park in distinct stripes and one adopter still
   drains everything: exactly-once per stripe, zero copies, and the
   single-threaded replay sees no stripe contention. *)
let sharded_orphanage_drains () =
  let threads = 4 in
  let cfg = cfg ~max_threads:threads ~reclaim_freq:1_000_000 ~segment_size:8 () in
  let heap = Heap.create ~max_threads:threads ~payload:(fun _ -> ()) () in
  let eng = Reclaimer.create cfg ~heap in
  let m = 100 in
  let donors =
    Array.init 3 (fun i ->
        let l = Reclaimer.register eng ~tid:i ~scratch_slots:8 in
        for _ = 1 to m do
          Reclaimer.retire l (Heap.alloc heap ~tid:i ~birth_era:0)
        done;
        l)
  in
  Array.iter Reclaimer.donate donors;
  Alcotest.(check int) "all stripes counted" (3 * m) (Reclaimer.orphans_pending eng);
  let adopter = Reclaimer.register eng ~tid:3 ~scratch_slots:8 in
  let freed = Reclaimer.scan_plain ~kind:Reclaimer.Plain ~keep:(fun _ -> false) adopter in
  Alcotest.(check int) "one pass drains every stripe" (3 * m) freed;
  Alcotest.(check int) "no orphans left" 0 (Reclaimer.orphans_pending eng);
  Alcotest.(check int) "adoption copies no node" 0 (Reclaimer.node_moves adopter);
  let s = stats eng in
  Alcotest.(check int) "donated" (3 * m) s.Smr_stats.orphans_donated;
  Alcotest.(check int) "adopted" (3 * m) s.Smr_stats.orphans_adopted;
  (* A second donation from the same tid reuses the now-empty stripe. *)
  let again = Reclaimer.register eng ~tid:0 ~scratch_slots:8 in
  for _ = 1 to 5 do
    Reclaimer.retire again (Heap.alloc heap ~tid:0 ~birth_era:0)
  done;
  Reclaimer.donate again;
  Alcotest.(check int) "stripe reused" 5 (Reclaimer.orphans_pending eng);
  let freed = Reclaimer.scan_plain ~kind:Reclaimer.Plain ~keep:(fun _ -> false) adopter in
  Alcotest.(check int) "drained again" 5 freed;
  Alcotest.(check int) "no double free" 0 (Heap.double_free_count heap)

let suite =
  [
    case "reclaimer: snapshot cache + invalidation" cache_and_invalidate;
    QCheck_alcotest.to_alcotest invalidation_property;
    case "reclaimer: old-vs-new equivalence (seed 101)" equivalence_seed_1;
    case "reclaimer: old-vs-new equivalence (seed 202)" equivalence_seed_2;
    case "reclaimer: old-vs-new equivalence (seed 303)" equivalence_seed_3;
    case "reclaimer: equivalence at tiny segment sizes" equivalence_tiny_segments;
    QCheck_alcotest.to_alcotest block_boundary_property;
    case "reclaimer: donate/adopt splice copies no nodes" donate_adopt_zero_moves;
    case "reclaimer: concurrent donate/adopt splices" concurrent_donate_adopt;
    case "reclaimer: per-thread stat rows stay exact under concurrent retire" stat_rows_exact;
    case "reclaimer: recycled blocks do not pin drained nodes" recycled_blocks_do_not_pin;
    case "reclaimer: scan_plain keeps segment bookkeeping" scan_plain_interleaving;
    QCheck_alcotest.to_alcotest stamp_maintenance_property;
    QCheck_alcotest.to_alcotest interval_verdict_property;
    case "reclaimer: era fast path settles whole blocks" era_block_fast_path;
    case "reclaimer: mixed block falls back to per-node era probes" era_mixed_block_fallback;
    case "reclaimer: engine frees at block granularity only" engine_frees_whole_blocks;
    case "reclaimer: sharded orphanage drains exactly once" sharded_orphanage_drains;
    case "reclaimer: released covered blocks drain" covered_blocks_drain;
    case "reclaimer: youngest covered blocks re-vetted first" youngest_covered_first;
    case "reclaimer: one scrub dummy per engine" one_dummy_per_engine;
  ]
