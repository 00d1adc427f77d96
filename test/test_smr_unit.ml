(** Behavioural unit tests for every reclamation algorithm, run through
    the uniform interface: reclamation thresholds, protection of
    reserved nodes (the thread's own and a peer's), drain-on-flush, the
    era bound of a protected read, and the algorithm-specific quirks
    (NBR neutralization, POP publish-on-ping, Hyaline batch charging
    with and without the 1S era guard, and the epoch pass that EBR and
    EpochPOP share: its pinned-floor guard and its retry once the floor
    moves). *)

open Pop_runtime
open Pop_core
module Heap = Pop_sim.Heap
open Tu

let below_threshold (name, (module R : Smr.S)) =
  case (name ^ ": no reclamation below threshold") (fun () ->
      let module Rig = Smr_rig (R) in
      Rig.run (fun _rig g ctx ->
          Rig.retire_n ctx 3;
          Alcotest.(check int) "unreclaimed" 3 (R.unreclaimed g);
          Alcotest.(check int) "freed" 0 (R.stats g).Smr_stats.freed))

let threshold_reclaims (name, (module R : Smr.S)) =
  case (name ^ ": threshold frees unprotected nodes") (fun () ->
      let module Rig = Smr_rig (R) in
      Rig.run (fun rig g ctx ->
          Rig.retire_n ctx 4;
          Alcotest.(check int) "all freed" 4 (R.stats g).Smr_stats.freed;
          Alcotest.(check int) "unreclaimed" 0 (R.unreclaimed g);
          Alcotest.(check int) "heap agrees" 0 (Heap.live_nodes rig.heap)))

(* Protect one node (read-based for reservation schemes, write-phase for
   NBR), retire it plus fillers to force a pass, and check it survives;
   then end the operation and flush, and check it is finally freed. *)
let protected_survives (name, (module R : Smr.S)) =
  case (name ^ ": protected node survives, freed after clear") (fun () ->
      let module Rig = Smr_rig (R) in
      Rig.run (fun rig g ctx ->
          R.start_op ctx;
          let n = R.alloc ctx in
          let cell = Atomic.make n in
          if name = "nbr" then R.enter_write_phase ctx [| n |]
          else ignore (R.read ctx 0 cell Fun.id);
          R.retire ctx n;
          Rig.retire_n ctx 3;
          (* A pass ran; the protected node must still be live. *)
          Alcotest.(check bool) "still live" true (Heap.is_live n);
          Alcotest.(check int) "no UAF" 0 (Heap.uaf_count rig.heap);
          R.end_op ctx;
          R.flush ctx;
          Alcotest.(check bool) "freed after clear+flush" false (Heap.is_live n);
          Alcotest.(check int) "nothing left" 0 (R.unreclaimed g)))

(* The same, with the reservation held by a peer domain (tid 1) that
   keeps polling, so the pass must see another thread's reservation
   through the scheme's publication: the shared row, hp-asym's barrier
   round over private rows, a ping that makes the peer publish, or
   cadence's tick rounds (whose guard alone holds the node in the first
   pass; flush's forced round then frees it against the peer's cleared
   row). *)
let peer_reservation_survives (name, (module R : Smr.S)) =
  case (name ^ ": a peer's reservation survives a pass, freed after its clear") (fun () ->
      let module Rig = Smr_rig (R) in
      Rig.run (fun rig g ctx ->
          let n = R.alloc ctx in
          let cell = Atomic.make n in
          (* 0 spawn, 1 held, 2 release, 3 cleared, 4 leave *)
          let phase = Atomic.make 0 in
          let serve_until p ctx1 =
            while Atomic.get phase = p do
              R.poll ctx1;
              Domain.cpu_relax ()
            done
          in
          let d =
            Domain.spawn (fun () ->
                let ctx1 = R.register g ~tid:1 in
                R.start_op ctx1;
                ignore (R.read ctx1 0 cell Fun.id);
                Atomic.set phase 1;
                serve_until 1 ctx1;
                R.end_op ctx1;
                Atomic.set phase 3;
                serve_until 3 ctx1;
                R.deregister ctx1)
          in
          while Atomic.get phase = 0 do
            Domain.cpu_relax ()
          done;
          R.retire ctx n;
          Rig.retire_n ctx 3;
          let held = Heap.is_live n in
          Atomic.set phase 2;
          while Atomic.get phase = 2 do
            Domain.cpu_relax ()
          done;
          R.flush ctx;
          let freed = not (Heap.is_live n) in
          Atomic.set phase 4;
          Domain.join d;
          Alcotest.(check bool) "peer-held node survives the pass" true held;
          Alcotest.(check bool) "freed after the peer's clear + flush" true freed;
          Alcotest.(check int) "no UAF" 0 (Heap.uaf_count rig.heap)))

let flush_drains (name, (module R : Smr.S)) =
  case (name ^ ": flush drains the retire list") (fun () ->
      let module Rig = Smr_rig (R) in
      Rig.run (fun _rig g ctx ->
          Rig.retire_n ctx 2;
          Alcotest.(check int) "pending" 2 (R.unreclaimed g);
          R.flush ctx;
          Alcotest.(check int) "drained" 0 (R.unreclaimed g);
          R.flush ctx (* idempotent on empty *);
          Alcotest.(check int) "still drained" 0 (R.unreclaimed g)))

let stats_accumulate (name, (module R : Smr.S)) =
  case (name ^ ": stats accumulate") (fun () ->
      let module Rig = Smr_rig (R) in
      Rig.run (fun _rig g ctx ->
          Rig.retire_n ctx 9;
          let s = R.stats g in
          Alcotest.(check int) "retired" 9 s.Smr_stats.retired;
          Alcotest.(check bool) "freed some" true (s.Smr_stats.freed >= 8);
          Alcotest.(check bool) "some pass ran" true
            (s.Smr_stats.reclaim_passes + s.Smr_stats.pop_passes >= 1)))

let deregister_releases (name, (module R : Smr.S)) =
  case (name ^ ": deregister frees the slot for reuse") (fun () ->
      let module Rig = Smr_rig (R) in
      Rig.run (fun rig g ctx ->
          R.flush ctx;
          R.deregister ctx;
          Alcotest.(check bool) "hub slot released" false (Softsignal.is_active rig.hub 0);
          let ctx' = R.register g ~tid:0 in
          Rig.retire_n ctx' 4;
          Alcotest.(check int) "usable after re-register" 0 (R.unreclaimed g)))

(* --- NR: leaks by design --- *)

module Nr_rig = Smr_rig (Pop_baselines.Nr)

let nr_leaks () =
  Nr_rig.run (fun rig g ctx ->
      Nr_rig.retire_n ctx 20;
      Alcotest.(check int) "never freed" 20 (Pop_baselines.Nr.unreclaimed g);
      Alcotest.(check int) "heap keeps growing" 20 (Heap.live_nodes rig.heap))

(* --- Unsafe_free: recycles under the reader's feet --- *)

module Unsafe_rig = Smr_rig (Pop_baselines.Unsafe_free)

let unsafe_free_is_unsafe () =
  Unsafe_rig.run (fun rig _g ctx ->
      let open Pop_baselines in
      let n = Unsafe_free.alloc ctx in
      let cell = Atomic.make n in
      Unsafe_free.start_op ctx;
      ignore (Unsafe_free.read ctx 0 cell Fun.id);
      Unsafe_free.retire ctx n;
      (* The node is already free; a subsequent access is a UAF. *)
      Unsafe_free.check ctx (Unsafe_free.read ctx 0 cell Fun.id);
      Alcotest.(check int) "UAF detected" 1 (Heap.uaf_count rig.heap))

(* --- POP-specific: reservations are published on ping --- *)

module Hpp_rig = Smr_rig (Hazard_ptr_pop)

let pop_publishes_on_ping () =
  Hpp_rig.run (fun rig g ctx ->
      Hazard_ptr_pop.start_op ctx;
      let n = Hazard_ptr_pop.alloc ctx in
      let cell = Atomic.make n in
      ignore (Hazard_ptr_pop.read ctx 0 cell Fun.id);
      Alcotest.(check int) "no publishes yet" 0 (Softsignal.handler_runs rig.hub);
      ignore (Softsignal.ping rig.hub 0);
      Hazard_ptr_pop.poll ctx;
      Alcotest.(check int) "published on ping" 1 (Softsignal.handler_runs rig.hub);
      Alcotest.(check int) "stats see it" 1 (Hazard_ptr_pop.stats g).Smr_stats.publishes)

let pop_reclaimer_pings () =
  Hpp_rig.run (fun rig g ctx ->
      (* A peer domain serves pings; the reclaimer must ping it and then
         free everything. *)
      let done_ = Atomic.make false in
      let d =
        Domain.spawn (fun () ->
            let ctx1 = Hazard_ptr_pop.register g ~tid:1 in
            while not (Atomic.get done_) do
              Hazard_ptr_pop.poll ctx1;
              Domain.cpu_relax ()
            done;
            Hazard_ptr_pop.deregister ctx1)
      in
      while not (Softsignal.is_active rig.hub 1) do
        Domain.cpu_relax ()
      done;
      Hpp_rig.retire_n ctx 4;
      Atomic.set done_ true;
      Domain.join d;
      let s = Hazard_ptr_pop.stats g in
      Alcotest.(check bool) "pinged the peer" true (s.Smr_stats.pings >= 1);
      Alcotest.(check int) "freed everything" 4 s.Smr_stats.freed)

(* --- NBR: neutralization protocol --- *)

module Nbr_rig = Smr_rig (Pop_baselines.Nbr)

let nbr_neutralize_restarts () =
  Nbr_rig.run (fun rig _g ctx ->
      let open Pop_baselines in
      let n = Nbr.alloc ctx in
      let cell = Atomic.make n in
      Nbr.start_op ctx;
      ignore (Softsignal.ping rig.hub 0);
      (match Nbr.read ctx 0 cell Fun.id with
      | _ -> Alcotest.fail "expected Restart"
      | exception Smr.Restart -> ());
      (* After the restart the flag is consumed: reads work again. *)
      Nbr.start_op ctx;
      ignore (Nbr.read ctx 0 cell Fun.id);
      Alcotest.(check pass) "read after restart" () ())

let nbr_write_phase_immune () =
  Nbr_rig.run (fun rig _g ctx ->
      let open Pop_baselines in
      let n = Nbr.alloc ctx in
      let cell = Atomic.make n in
      Nbr.start_op ctx;
      Nbr.enter_write_phase ctx [| n |];
      ignore (Softsignal.ping rig.hub 0);
      ignore (Nbr.read ctx 0 cell Fun.id);
      Nbr.end_op ctx;
      Alcotest.(check pass) "no restart in write phase" () ())

let nbr_neutralize_before_write_phase () =
  Nbr_rig.run (fun rig _g ctx ->
      let open Pop_baselines in
      let n = Nbr.alloc ctx in
      Nbr.start_op ctx;
      ignore (Softsignal.ping rig.hub 0);
      match Nbr.enter_write_phase ctx [| n |] with
      | () -> Alcotest.fail "expected Restart at write-phase entry"
      | exception Smr.Restart -> ())

let nbr_write_set_bounded () =
  Nbr_rig.run (fun _rig _g ctx ->
      let open Pop_baselines in
      Nbr.start_op ctx;
      let nodes = Array.init 9 (fun _ -> Nbr.alloc ctx) in
      match Nbr.enter_write_phase ctx nodes with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

(* --- Hyaline: batches are charged to active threads --- *)

module One_rig = Smr_rig (Pop_baselines.Hyaline_one)

let hyaline_batch_held_by_active_thread () =
  One_rig.run (fun _rig g ctx0 ->
      let open Pop_baselines in
      let ctx1 = Hyaline_one.register g ~tid:1 in
      Hyaline_one.start_op ctx0;
      (* tid1 retires a full batch while tid0 is active. *)
      for _ = 1 to 4 do
        Hyaline_one.retire ctx1 (Hyaline_one.alloc ctx1)
      done;
      Alcotest.(check int) "batch held" 4 (Hyaline_one.unreclaimed g);
      Hyaline_one.end_op ctx0;
      Alcotest.(check int) "freed when holder leaves" 0 (Hyaline_one.unreclaimed g))

let hyaline_idle_world_frees_immediately () =
  One_rig.run (fun _rig g ctx ->
      One_rig.retire_n ctx 4;
      Alcotest.(check int) "no active threads: freed" 0 (Pop_baselines.Hyaline_one.unreclaimed g))

(* --- Hyaline family edge cases, shared by -1 / -1S ---

   Empty batches (flush with nothing pending must not form or adjust
   anything), single-node batches (reclaim_freq = 1 degenerates every
   batch to one node), and retiring into an adopted orphanage (a
   departing thread's donation must ride the adopter's next batch). *)

module Hyaline_family (R : Smr.S) = struct
  module Rig = Smr_rig (R)

  let empty_batch () =
    Rig.run (fun _rig g ctx ->
        R.flush ctx;
        R.flush ctx;
        let s = R.stats g in
        Alcotest.(check int) "no pass on empty flush" 0 s.Smr_stats.reclaim_passes;
        Alcotest.(check int) "nothing freed" 0 s.Smr_stats.freed;
        Alcotest.(check int) "nothing pending" 0 (R.unreclaimed g))

  (* [held]: how many of the three singleton batches the active holder
     pins. 3 for -1; 1 for -1S, whose era guard lets every batch
     born after the holder's published era slide past it (each
     singleton reclaim bumps the global era, so only the first batch is
     coeval with the holder). *)
  let single_node_batches ~held () =
    Rig.run ~reclaim_freq:1 (fun rig g ctx0 ->
        let ctx1 = R.register g ~tid:1 in
        (* No holder: each retire forms and frees a one-node batch. *)
        Rig.retire_n ctx0 2;
        Alcotest.(check int) "singletons freed immediately" 0 (R.unreclaimed g);
        (* Active holder: each one-node batch is charged individually. *)
        R.start_op ctx1;
        Rig.retire_n ctx0 3;
        Alcotest.(check int) "singleton batches held" held (R.unreclaimed g);
        R.end_op ctx1;
        Alcotest.(check int) "all freed when holder leaves" 0 (R.unreclaimed g);
        Alcotest.(check int) "no UAF" 0 (Heap.uaf_count rig.heap);
        R.deregister ctx1)

  let retire_during_adopt () =
    Rig.run ~max_threads:3 (fun rig g ctx0 ->
        R.start_op ctx0 (* the holder every formed batch is charged to *);
        let ctx1 = R.register g ~tid:1 in
        Rig.retire_n ctx1 2 (* below threshold: stays pending *);
        R.deregister ctx1 (* donates the 2 pending nodes *);
        let ctx2 = R.register g ~tid:2 in
        (* ctx2's threshold-tripping batch adopts the orphans: they ride
           the same batch and obey the same charge. *)
        Rig.retire_n ctx2 4;
        let s = R.stats g in
        Alcotest.(check int) "orphans donated" 2 s.Smr_stats.orphans_donated;
        Alcotest.(check int) "orphans adopted" 2 s.Smr_stats.orphans_adopted;
        Alcotest.(check int) "whole batch incl. orphans held" 6 (R.unreclaimed g);
        R.end_op ctx0;
        Alcotest.(check int) "orphans freed with the batch" 0 (R.unreclaimed g);
        Alcotest.(check int) "no UAF" 0 (Heap.uaf_count rig.heap);
        R.deregister ctx2)
end

module One_family = Hyaline_family (Pop_baselines.Hyaline_one)
module One_s_family = Hyaline_family (Pop_baselines.Hyaline_one_s)

(* The deliberate 1S divergence: a holder whose published era predates
   every node in a batch is skipped, so garbage born after a thread
   froze is freed out from under it — the robustness bound Hyaline-1
   lacks. *)
module One_s_rig = Smr_rig (Pop_baselines.Hyaline_one_s)

let hyaline_1s_era_guard_skips_frozen_holder () =
  One_s_rig.run (fun rig g ctx0 ->
      let open Pop_baselines in
      let ctx1 = Hyaline_one_s.register g ~tid:1 in
      Hyaline_one_s.start_op ctx1 (* publishes era 1, then freezes *);
      (* Batch 1: born at era 1 = ctx1's era, so it is charged. *)
      One_s_rig.retire_n ctx0 4;
      Alcotest.(check int) "coeval batch held" 4 (Hyaline_one_s.unreclaimed g);
      (* Batch 2: born at era 2 > ctx1's frozen era 1 — skipped, freed
         despite the frozen-but-active holder. *)
      One_s_rig.retire_n ctx0 4;
      Alcotest.(check int) "younger batch freed past frozen holder" 4
        (Hyaline_one_s.unreclaimed g);
      Hyaline_one_s.end_op ctx1;
      Alcotest.(check int) "coeval batch freed on leave" 0 (Hyaline_one_s.unreclaimed g);
      Alcotest.(check int) "no UAF" 0 (Heap.uaf_count rig.heap);
      Hyaline_one_s.deregister ctx1)

let hyaline_1_frozen_holder_pins_everything () =
  One_rig.run (fun _rig g ctx0 ->
      let open Pop_baselines in
      let ctx1 = Hyaline_one.register g ~tid:1 in
      Hyaline_one.start_op ctx1;
      One_rig.retire_n ctx0 8;
      (* No era guard: both batches stay charged to the frozen holder. *)
      Alcotest.(check int) "everything pinned" 8 (Hyaline_one.unreclaimed g);
      Hyaline_one.end_op ctx1;
      Alcotest.(check int) "released on leave" 0 (Hyaline_one.unreclaimed g);
      Hyaline_one.deregister ctx1)

(* --- EBR and EpochPOP: the shared epoch pass --- *)

(* A pinned floor: the passes after the first are skipped and counted,
   garbage accumulates, and it drains once the peer leaves. Run for ebr
   over four thresholds and for epoch-pop over two: epoch-pop's POP pass
   at the second threshold pings the peer, which never polls here, and
   a third timed-out round would quarantine it and free the garbage. *)
let pinned_epoch_blocks (module R : Smr.S) ~retires () =
  let module Rig = Smr_rig (R) in
  Rig.run (fun _rig g ctx0 ->
      let ctx1 = R.register g ~tid:1 in
      R.start_op ctx1 (* pins the current epoch and never leaves *);
      Rig.retire_n ctx0 retires;
      Alcotest.(check bool) "garbage accumulates" true (R.unreclaimed g >= retires * 3 / 4);
      let s = R.stats g in
      Alcotest.(check bool) "few passes" true (s.Smr_stats.reclaim_passes <= 2);
      Alcotest.(check bool) "skipped passes counted" true (s.Smr_stats.scan_skips >= 1);
      R.end_op ctx1;
      R.flush ctx0;
      Alcotest.(check int) "drains once unpinned" 0 (R.unreclaimed g))

(* --- HE: reservations pin eras, not nodes --- *)

(* HE's robustness: a reservation only pins nodes whose lifespan
   intersects the reserved era. Reserve the old node's era so it
   survives one pass, then move the reservation to the new era (by
   re-reading) and watch the old, lifespan-disjoint node get freed even
   though a reservation is still held. Run for he and he-pop, which
   share the era pass. *)
let era_old_nodes_freeable_despite_reservation (module R : Smr.S) () =
  let module Rig = Smr_rig (R) in
  Rig.run (fun rig _g ctx ->
      R.start_op ctx;
      let old_node = R.alloc ctx in
      let cell = Atomic.make old_node in
      ignore (R.read ctx 0 cell Fun.id);
      R.retire ctx old_node;
      Rig.retire_n ctx 3;
      (* Pass 1: our era-of-old reservation covers old_node. *)
      Alcotest.(check bool) "reserved era pins old node" true (Heap.is_live old_node);
      (* Move the reservation to the current era. *)
      let fresh = R.alloc ctx in
      Atomic.set cell fresh;
      ignore (R.read ctx 0 cell Fun.id);
      Rig.retire_n ctx 4;
      (* Pass 2: old_node's lifespan no longer intersects any reserved
         era, so it is reclaimed despite the live reservation. *)
      Alcotest.(check bool) "disjoint lifespan freed" false (Heap.is_live old_node);
      Alcotest.(check bool) "newly reserved node survives" true (Heap.is_live fresh);
      Alcotest.(check int) "no UAF" 0 (Heap.uaf_count rig.heap);
      R.end_op ctx)

(* --- IBR: intervals protect overlapping lifespans --- *)

module Ibr_rig = Smr_rig (Pop_baselines.Ibr)

let ibr_interval_protects () =
  Ibr_rig.run (fun rig g ctx0 ->
      let open Pop_baselines in
      let ctx1 = Ibr.register g ~tid:1 in
      Ibr.start_op ctx1;
      (* A node whose lifespan overlaps ctx1's interval must survive. *)
      let n = Ibr.alloc ctx0 in
      Ibr.retire ctx0 n;
      Ibr_rig.retire_n ctx0 3;
      Alcotest.(check bool) "overlapping node held" true (Heap.is_live n);
      Alcotest.(check int) "no UAF" 0 (Heap.uaf_count rig.heap);
      Ibr.end_op ctx1;
      Ibr.flush ctx0;
      Alcotest.(check bool) "freed after interval closes" false (Heap.is_live n))

(* --- EpochPOP: epoch stamping of allocations --- *)

(* --- Cadence: tick-gated reclamation, periodic barrier rounds --- *)

module Cadence_rig = Smr_rig (Pop_baselines.Cadence)

let cadence_tick_gates_frees () =
  Cadence_rig.run (fun _rig g ctx ->
      let open Pop_baselines in
      (* Hitting the threshold is not enough: two barrier ticks must
         pass before anything can be freed. *)
      Cadence_rig.retire_n ctx 4;
      Alcotest.(check int) "held until ticks pass" 4 (Cadence.unreclaimed g);
      Cadence.flush ctx (* forces barrier rounds *);
      Alcotest.(check int) "freed after forced rounds" 0 (Cadence.unreclaimed g))

let cadence_periodic_rounds_without_reclaiming () =
  Cadence_rig.run (fun rig g ctx ->
      let open Pop_baselines in
      (* No retires at all — yet barrier rounds still run, the overhead
         the paper criticizes in section 2.1.2. The peer must poll from
         its own domain: the barrier waits for it. *)
      let stop = Atomic.make false in
      let d =
        Domain.spawn (fun () ->
            let ctx1 = Cadence.register g ~tid:1 in
            while not (Atomic.get stop) do
              Cadence.poll ctx1;
              Domain.cpu_relax ()
            done;
            Cadence.deregister ctx1)
      in
      while not (Softsignal.is_active rig.hub 1) do
        Domain.cpu_relax ()
      done;
      for _ = 1 to 3 do
        (* Sleep past one tick, so the next 64 operations start a round. *)
        Unix.sleepf (1.5 *. Cadence.tick_interval);
        for _ = 1 to 128 do
          Cadence.start_op ctx;
          Cadence.end_op ctx
        done
      done;
      Atomic.set stop true;
      Domain.join d;
      Alcotest.(check bool) "rounds ran without reclamation" true
        (Softsignal.pings_sent rig.hub > 0))

module Epop_rig = Smr_rig (Epoch_pop)

let epoch_pop_birth_eras_advance () =
  Epop_rig.run (fun _rig _g ctx ->
      let b0 = (Epoch_pop.alloc ctx).Heap.birth_era in
      (* epoch_freq = 2: every other start_op advances the epoch. *)
      for _ = 1 to 8 do
        Epoch_pop.start_op ctx;
        Epoch_pop.end_op ctx
      done;
      let b1 = (Epoch_pop.alloc ctx).Heap.birth_era in
      Alcotest.(check bool) "birth era advanced" true (b1 > b0))

(* An epoch pass blocked by a lagging announcement is retried within
   one segment block of the floor moving, not a whole threshold later:
   tid 1 pins the epoch while tid 0 retires a threshold's worth, then
   leaves its operation. Run for ebr and epoch-pop, which share the
   epoch pass. *)
let retries_blocked_pass (module R : Smr.S) () =
  let module Rig = Smr_rig (R) in
  Rig.run ~reclaim_freq:512 (fun rig g ctx0 ->
      let ctx1 = R.register g ~tid:1 in
      R.start_op ctx1;
      Rig.retire_n ctx0 512;
      Alcotest.(check int) "the pass at the threshold is blocked" 512 (R.unreclaimed g);
      R.end_op ctx1;
      Rig.retire_n ctx0 rig.cfg.Smr_config.segment_size;
      Alcotest.(check bool) "retried once the floor moved" true (R.unreclaimed g < 512);
      R.deregister ctx1)

(* A protected read must never return a node born after the bound the
   reader published. A writer (tid 1) keeps swapping freshly allocated
   nodes into one cell and retiring the old ones, with a pass every 8
   retires and, for IBR, an epoch advance at every allocation; the
   reader (tid 0) reads the cell, holds the node for a while, then
   dereferences it. A read that published its bound before loading the
   pointer returns nodes the writer's passes do not see as covered. *)
let era_read_bound (module R : Smr.S) () =
  let module Rig = Smr_rig (R) in
  Rig.run ~reclaim_freq:8 ~epoch_freq:1 (fun rig g ctx0 ->
      let cell = Atomic.make (R.alloc ctx0) in
      let stop = Atomic.make false in
      let writer =
        Domain.spawn (fun () ->
            let ctx1 = R.register g ~tid:1 in
            while not (Atomic.get stop) do
              R.start_op ctx1;
              let old = Atomic.exchange cell (R.alloc ctx1) in
              R.end_op ctx1;
              R.retire ctx1 old
            done;
            R.deregister ctx1)
      in
      for _ = 1 to 300_000 do
        R.start_op ctx0;
        let n = R.read ctx0 0 cell Fun.id in
        for i = 1 to 500 do
          ignore (Sys.opaque_identity i)
        done;
        R.check ctx0 n;
        R.end_op ctx0
      done;
      Atomic.set stop true;
      Domain.join writer;
      Alcotest.(check int) "no UAF" 0 (Heap.uaf_count rig.heap))

(* Delivery-bound guard (Assumption 1: a pending ping is handled within
   one protected read). A fixed-seed, single-thread replay of 1,000 hml
   [contains] through a wrapper that self-pings before every [period]-th
   [read] and notes whether the handler ran inside that read. Every ping
   must be delivered by the read it precedes, and the heartbeat must move
   only for explicit polls and deliveries (a read with no ping pending
   tests the flag and does not poll). NBR is pinged every 300th read,
   not every read: its delivery neutralizes the read phase and restarts
   the operation, and a traversal here is at most ~130 reads, so a ping
   before every read would never let an operation finish. EBR's read has
   no delivery point, so the same replay must find no delivery there. *)
module Pinging (S : Smr.S) = struct
  include S

  let hub = ref None (* set after the prefill *)

  let period = ref 1

  let reads = ref 0

  let pings = ref 0

  let delivered = ref 0 (* reads inside which the handler ran *)

  let polls = ref 0

  let read ctx slot cell proj =
    incr reads;
    match !hub with
    | Some h when !reads mod !period = 0 ->
        incr pings;
        ignore (Softsignal.ping h 0);
        let r0 = Softsignal.handler_runs h in
        let note () = if Softsignal.handler_runs h > r0 then incr delivered in
        (match S.read ctx slot cell proj with
        | v ->
            note ();
            v
        | exception e ->
            note ();
            raise e)
    | _ -> S.read ctx slot cell proj

  let poll ctx =
    incr polls;
    S.poll ctx
end

let every_read_delivers (module S : Smr.S) ~period ~delivers () =
  let module P = Pinging (S) in
  let module L = Pop_ds.Hm_list.Make (Smr_typed.Of (P)) in
  let hub = Softsignal.create ~max_threads:1 in
  let set =
    L.create
      (Smr_config.default ~max_threads:1 ())
      (Pop_ds.Ds_config.default ~key_range:256)
      ~hub
  in
  let ctx = L.register set ~tid:0 in
  let rng = Rng.make 42 in
  for _ = 1 to 128 do
    ignore (L.insert ctx (Rng.int rng 256))
  done;
  P.hub := Some hub;
  P.period := period;
  P.reads := 0;
  P.polls := 0;
  let hb0 = Softsignal.heartbeat hub 0 and runs0 = Softsignal.handler_runs hub in
  let restarts0 = (L.smr_stats set).Smr_stats.restarts in
  for _ = 1 to 1000 do
    ignore (L.contains ctx (Rng.int rng 256));
    L.poll ctx
  done;
  let runs = Softsignal.handler_runs hub - runs0 in
  Alcotest.(check bool) "a real traversal" true (!P.reads > 10_000);
  Alcotest.(check int) "one ping per period" (!P.reads / period) !P.pings;
  Alcotest.(check int) "explicit polls" 1000 !P.polls;
  if delivers then begin
    Alcotest.(check int) "every pinged read delivers" !P.pings !P.delivered;
    Alcotest.(check int) "handler runs = pinged reads" !P.pings runs
  end
  else Alcotest.(check int) "no delivery point in read" 0 !P.delivered;
  Alcotest.(check int) "heartbeat = explicit polls + deliveries" (!P.polls + !P.delivered)
    (Softsignal.heartbeat hub 0 - hb0);
  if S.name = "nbr" then
    Alcotest.(check int) "each delivery restarts the operation" !P.delivered
      ((L.smr_stats set).Smr_stats.restarts - restarts0)

(* One thread whose every operation reads, allocates and retires, so its
   own reservation is the only one. The era ticks every [epoch_freq]
   allocations, so a pass keeps only the nodes retired in the reserved
   era: the list peaks at one threshold plus one tick of retires and a
   partial block. An era that moved only in a pass's collect would pin
   the whole open segment each pass, about twice the threshold. *)
let era_tick_bounds_lone_garbage (module R : Smr.S) () =
  let cfg =
    {
      (Smr_config.default ~max_threads:1 ()) with
      reclaim_freq = 256;
      epoch_freq = 8;
      segment_size = 16;
    }
  in
  let heap = Heap.create ~max_threads:1 ~payload:(fun _ -> ()) () in
  let g = R.create cfg (Softsignal.create ~max_threads:1) heap in
  let ctx = R.register g ~tid:0 in
  let cell = Atomic.make (R.alloc ctx) in
  for _ = 1 to 16 * cfg.reclaim_freq do
    R.start_op ctx;
    let old = R.read ctx 0 cell Fun.id in
    Atomic.set cell (R.alloc ctx);
    R.retire ctx old;
    R.end_op ctx
  done;
  let s = R.stats g in
  let bound = cfg.reclaim_freq + cfg.epoch_freq + cfg.segment_size in
  Alcotest.(check bool)
    (Printf.sprintf "peak %d within [%d, %d]" s.Smr_stats.max_unreclaimed cfg.reclaim_freq bound)
    true
    (s.Smr_stats.max_unreclaimed >= cfg.reclaim_freq && s.Smr_stats.max_unreclaimed <= bound);
  Alcotest.(check bool) "passes ran" true
    (s.Smr_stats.pop_passes + s.Smr_stats.reclaim_passes >= 8);
  R.flush ctx;
  R.deregister ctx;
  Alcotest.(check int) "no UAF" 0 (Heap.uaf_count heap)

(* Cadence gates frees on global barrier ticks, so threshold-exact
   expectations do not apply to it; it gets dedicated tests instead. *)
let generic =
  List.concat_map
    (fun ((name, _) as algo) ->
      [ below_threshold algo; flush_drains algo ]
      @
      if name = "cadence" then []
      else [ threshold_reclaims algo; stats_accumulate algo; deregister_releases algo ])
    reclaiming_smrs

let protection = List.map protected_survives reclaiming_smrs

let family_smrs =
  List.filter
    (fun (n, _) -> List.mem n [ "hp"; "hp-asym"; "hp-pop"; "he"; "he-pop"; "cadence"; "ibr" ])
    reclaiming_smrs

let peer_protection = List.map peer_reservation_survives family_smrs

let era_reads =
  List.filter (fun (n, _) -> List.mem n [ "ibr"; "he"; "he-pop"; "hyaline-1s" ]) reclaiming_smrs
  |> List.map (fun (n, m) ->
         case (n ^ ": a read never returns a node born after the reader's bound") (era_read_bound m))

let suite =
  generic @ protection @ peer_protection @ era_reads
  @ [
      case "nr: leaks by design" nr_leaks;
      case "unsafe-free: detectably unsafe" unsafe_free_is_unsafe;
      case "hp-pop: publishes on ping" pop_publishes_on_ping;
      case "hp-pop: reclaimer pings peers and frees" pop_reclaimer_pings;
      case "nbr: neutralize restarts read phase" nbr_neutralize_restarts;
      case "nbr: write phase immune to neutralize" nbr_write_phase_immune;
      case "nbr: neutralize caught at write-phase entry" nbr_neutralize_before_write_phase;
      case "nbr: write set bounded by max_hp" nbr_write_set_bounded;
      case "hyaline-1: batch held by active thread" hyaline_batch_held_by_active_thread;
      case "hyaline-1: idle world frees immediately" hyaline_idle_world_frees_immediately;
      case "hyaline-1: empty batch is a no-op" One_family.empty_batch;
      case "hyaline-1: single-node batches" (One_family.single_node_batches ~held:3);
      case "hyaline-1: retire during adopt" One_family.retire_during_adopt;
      case "hyaline-1s: empty batch is a no-op" One_s_family.empty_batch;
      case "hyaline-1s: single-node batches" (One_s_family.single_node_batches ~held:1);
      case "hyaline-1s: retire during adopt" One_s_family.retire_during_adopt;
      case "hyaline-1s: era guard skips frozen holder"
        hyaline_1s_era_guard_skips_frozen_holder;
      case "hyaline-1: frozen holder pins everything"
        hyaline_1_frozen_holder_pins_everything;
      case "ebr: pinned epoch blocks reclamation"
        (pinned_epoch_blocks (module Pop_baselines.Ebr) ~retires:16);
      case "epoch-pop: pinned epoch blocks reclamation"
        (pinned_epoch_blocks (module Epoch_pop) ~retires:8);
      case "cadence: ticks gate frees" cadence_tick_gates_frees;
      case "cadence: periodic rounds without reclaiming"
        cadence_periodic_rounds_without_reclaiming;
      case "he: old lifespans freeable despite reservation"
        (era_old_nodes_freeable_despite_reservation (module Pop_baselines.Hazard_eras));
      case "he-pop: old lifespans freeable despite reservation"
        (era_old_nodes_freeable_despite_reservation (module Hazard_era_pop));
      case "he: the era ticks by allocations, bounding a lone thread's garbage"
        (era_tick_bounds_lone_garbage (module Pop_baselines.Hazard_eras));
      case "he-pop: the era ticks by allocations, bounding a lone thread's garbage"
        (era_tick_bounds_lone_garbage (module Hazard_era_pop));
      case "ibr: overlapping interval protects" ibr_interval_protects;
      case "epoch-pop: birth eras advance" epoch_pop_birth_eras_advance;
      case "epoch-pop: a blocked epoch pass is retried when the floor moves"
        (retries_blocked_pass (module Epoch_pop));
      case "ebr: a blocked epoch pass is retried when the floor moves"
        (retries_blocked_pass (module Pop_baselines.Ebr));
      case "hp-pop: every protected read delivers a pending ping"
        (every_read_delivers (module Hazard_ptr_pop) ~period:1 ~delivers:true);
      case "he-pop: every protected read delivers a pending ping"
        (every_read_delivers (module Hazard_era_pop) ~period:1 ~delivers:true);
      case "epoch-pop: every protected read delivers a pending ping"
        (every_read_delivers (module Epoch_pop) ~period:1 ~delivers:true);
      case "nbr: every protected read delivers a pending ping"
        (every_read_delivers (module Pop_baselines.Nbr) ~period:300 ~delivers:true);
      case "ebr: a read with no delivery point delivers nothing"
        (every_read_delivers (module Pop_baselines.Ebr) ~period:1 ~delivers:false);
    ]
