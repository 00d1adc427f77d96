(** Robustness properties (paper Properties 3 and 5): a delayed thread
    pins EBR's reclamation and its garbage grows without bound, while
    the publish-on-ping algorithms keep garbage bounded by continuing to
    reclaim through pings. Includes both a surgical two-context
    micro-scenario and full Runner-driven stall experiments. *)

open Pop_core
open Tu
open Pop_harness

(* Micro-scenario: tid1 sits inside an operation holding an old epoch
   and a reservation; tid0 keeps retiring. EpochPOP must reclaim via
   pings; EBR must not reclaim at all. *)

let epoch_pop_reclaims_past_delayed_thread () =
  (let module Rig__ = Smr_rig (Epoch_pop) in
   Rig__.run)
    ~reclaim_freq:8
    (fun rig g ctx0 ->
      let stop = Atomic.make false in
      let pinned = Atomic.make false in
      let d =
        Domain.spawn (fun () ->
            let ctx1 = Epoch_pop.register g ~tid:1 in
            Epoch_pop.start_op ctx1;
            let n = Epoch_pop.alloc ctx1 in
            let cell = Atomic.make n in
            ignore (Epoch_pop.read ctx1 0 cell Fun.id);
            Atomic.set pinned true;
            (* Stalled mid-operation, but still reachable by pings. *)
            while not (Atomic.get stop) do
              Epoch_pop.poll ctx1;
              Domain.cpu_relax ()
            done;
            Epoch_pop.end_op ctx1;
            Epoch_pop.deregister ctx1)
      in
      while not (Atomic.get pinned) do
        Domain.cpu_relax ()
      done;
      (* Retire far more than pop_mult * reclaim_freq: the POP fallback
         must engage and keep garbage bounded. *)
      for _ = 1 to 200 do
        Epoch_pop.retire ctx0 (Epoch_pop.alloc ctx0)
      done;
      let bound = 2 * 8 * 2 (* pop_mult * reclaim_freq * margin *) in
      Alcotest.(check bool) "garbage bounded" true (Epoch_pop.unreclaimed g <= bound);
      Alcotest.(check bool) "pop passes ran" true
        ((Epoch_pop.stats g).Smr_stats.pop_passes >= 1);
      Alcotest.(check int) "no UAF" 0 (Pop_sim.Heap.uaf_count rig.heap);
      Atomic.set stop true;
      Domain.join d)

(* Algorithm 3's C at its default: the first epoch pass a pinned peer
   blocks already falls back to pings, so the retiring thread's list
   never holds more than one threshold (with C = 2 it climbs to two). *)
let epoch_pop_default_c_bounds_pending () =
  let freq = 8 in
  let cfg = { (Smr_config.default ~max_threads:2 ()) with reclaim_freq = freq; epoch_freq = 2 } in
  let heap = Pop_sim.Heap.create ~max_threads:2 ~payload:(fun _ -> ()) () in
  let g = Epoch_pop.create cfg (Pop_runtime.Softsignal.create ~max_threads:2) heap in
  let ctx0 = Epoch_pop.register g ~tid:0 in
  let stop = Atomic.make false and pinned = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let ctx1 = Epoch_pop.register g ~tid:1 in
        Epoch_pop.start_op ctx1;
        ignore (Epoch_pop.read ctx1 0 (Atomic.make (Epoch_pop.alloc ctx1)) Fun.id);
        Atomic.set pinned true;
        while not (Atomic.get stop) do
          Epoch_pop.poll ctx1;
          Domain.cpu_relax ()
        done;
        Epoch_pop.end_op ctx1;
        Epoch_pop.deregister ctx1)
  in
  while not (Atomic.get pinned) do
    Domain.cpu_relax ()
  done;
  let worst = ref 0 in
  for _ = 1 to 200 do
    Epoch_pop.retire ctx0 (Epoch_pop.alloc ctx0);
    worst := max !worst (Epoch_pop.unreclaimed g)
  done;
  Atomic.set stop true;
  Domain.join d;
  Alcotest.(check bool)
    (Printf.sprintf "pending peaked at %d <= reclaim_freq %d" !worst freq)
    true (!worst <= freq);
  Alcotest.(check bool) "pop passes ran" true ((Epoch_pop.stats g).Smr_stats.pop_passes >= 1);
  Alcotest.(check int) "no UAF" 0 (Pop_sim.Heap.uaf_count heap)

let ebr_blocked_by_delayed_thread () =
  (let module Rig__ = Smr_rig (Pop_baselines.Ebr) in
   Rig__.run)
    ~reclaim_freq:8
    (fun _rig g ctx0 ->
      let open Pop_baselines in
      let stop = Atomic.make false in
      let pinned = Atomic.make false in
      let d =
        Domain.spawn (fun () ->
            let ctx1 = Ebr.register g ~tid:1 in
            Ebr.start_op ctx1;
            Atomic.set pinned true;
            while not (Atomic.get stop) do
              Ebr.poll ctx1;
              Domain.cpu_relax ()
            done;
            Ebr.end_op ctx1;
            Ebr.deregister ctx1)
      in
      while not (Atomic.get pinned) do
        Domain.cpu_relax ()
      done;
      for _ = 1 to 200 do
        Ebr.retire ctx0 (Ebr.alloc ctx0)
      done;
      (* Nothing can be freed while the epoch is pinned. *)
      Alcotest.(check int) "garbage unbounded" 200 (Ebr.unreclaimed g);
      Atomic.set stop true;
      Domain.join d;
      Ebr.flush ctx0;
      Alcotest.(check int) "drains after delay ends" 0 (Ebr.unreclaimed g))

let hp_pop_bound_is_reservation_count () =
  (let module Rig__ = Smr_rig (Hazard_ptr_pop) in
   Rig__.run)
    ~reclaim_freq:8
    (fun rig g ctx0 ->
      let stop = Atomic.make false in
      let pinned = Atomic.make false in
      let d =
        Domain.spawn (fun () ->
            let ctx1 = Hazard_ptr_pop.register g ~tid:1 in
            Hazard_ptr_pop.start_op ctx1;
            let n = Hazard_ptr_pop.alloc ctx1 in
            let cell = Atomic.make n in
            ignore (Hazard_ptr_pop.read ctx1 0 cell Fun.id);
            Atomic.set pinned true;
            while not (Atomic.get stop) do
              Hazard_ptr_pop.poll ctx1;
              Domain.cpu_relax ()
            done;
            Hazard_ptr_pop.end_op ctx1;
            Hazard_ptr_pop.deregister ctx1)
      in
      while not (Atomic.get pinned) do
        Domain.cpu_relax ()
      done;
      for _ = 1 to 200 do
        Hazard_ptr_pop.retire ctx0 (Hazard_ptr_pop.alloc ctx0)
      done;
      (* Property 3: at most max_threads * max_hp survivors per pass,
         plus the not-yet-threshold tail. *)
      let bound = (2 * 8) + 8 in
      Alcotest.(check bool) "bounded by N*H" true (Hazard_ptr_pop.unreclaimed g <= bound);
      Alcotest.(check int) "no UAF" 0 (Pop_sim.Heap.uaf_count rig.heap);
      Atomic.set stop true;
      Domain.join d)

(* Full-system stall experiments through the Runner. *)

let runner_stall smr =
  Runner.run
    {
      Runner.default_cfg with
      ds = Dispatch.HML;
      smr;
      threads = 3;
      duration = 1.0;
      key_range = 512;
      reclaim_freq = 64;
      stall =
        Some
          { Runner.stall_tid = 0; stall_after = 0.1; stall_for = 0.6; stall_polling = true };
    }

let stalled_ebr_vs_epoch_pop () =
  let ebr = runner_stall Dispatch.EBR in
  let epop = runner_stall Dispatch.EPOCHPOP in
  Alcotest.(check bool) "both consistent" true (Runner.consistent ebr && Runner.consistent epop);
  (* EBR's peak garbage under a stall dwarfs EpochPOP's. *)
  Alcotest.(check bool)
    (Printf.sprintf "ebr garbage (%d) >> epoch-pop garbage (%d)" ebr.Runner.max_unreclaimed
       epop.Runner.max_unreclaimed)
    true
    (ebr.Runner.max_unreclaimed > 3 * epop.Runner.max_unreclaimed);
  Alcotest.(check bool) "epoch-pop used pings" true (epop.Runner.smr.Smr_stats.pop_passes > 0)

let stalled_hp_pop_stays_bounded () =
  let r = runner_stall Dispatch.HPPOP in
  Alcotest.(check bool) "consistent" true (Runner.consistent r);
  (* Unreclaimed is summed across threads: each may hold up to a full
     retire list (reclaim_freq) plus the N*H survivors of a pass. *)
  let threads = 3 and reclaim_freq = 64 and max_hp = 8 in
  let bound = threads * (reclaim_freq + (threads * max_hp)) + reclaim_freq in
  Alcotest.(check bool)
    (Printf.sprintf "bounded (%d <= %d)" r.Runner.max_unreclaimed bound)
    true
    (r.Runner.max_unreclaimed <= bound)

(* The era schemes' garbage under a stall plateaus instead of growing
   with the operations the stall window holds: the stalled thread pins
   only the nodes whose lifespan covers its reserved eras, and the
   reclaimer's covered re-vet reaches the short-lived survivors before
   the pinned backlog. The stall covers the run from 10% on (the
   wake-on-stop hook ends it); the bound is 4x the ~2,048 live nodes.

   The plateau must not cost a ping storm: the stalled thread's
   survivors hold the reclaimer's list above the threshold, so an era
   tick that invalidated the snapshot would make every retire a fresh
   ping round (about one per 55 retires). Passes stay at most one per
   two segment blocks of retires (about one per 500 here). *)
let stalled_era_scheme_plateaus smr =
  let name = Dispatch.smr_name smr in
  case
    (Printf.sprintf "runner stall: %s garbage plateaus" name)
    (fun () ->
      let r =
        Runner.run
          {
            Runner.default_cfg with
            ds = Dispatch.HMHT;
            smr;
            threads = 2;
            duration = 0.6;
            key_range = 4096;
            stall =
              Some
                {
                  Runner.stall_tid = 0;
                  stall_after = 0.06;
                  stall_for = 0.6;
                  stall_polling = true;
                };
          }
      in
      Alcotest.(check bool) "consistent" true (Runner.consistent r);
      Alcotest.(check bool)
        (Printf.sprintf "%s garbage (%d) <= 8192" name r.Runner.max_unreclaimed)
        true
        (r.Runner.max_unreclaimed <= 8192);
      let s = r.Runner.smr and two_blocks = 2 * Runner.default_cfg.segment_size in
      let passes = s.Smr_stats.pop_passes + s.Smr_stats.reclaim_passes in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d passes for %d retires, at most one per %d" name passes
           s.Smr_stats.retired two_blocks)
        true
        (passes > 0 && passes * two_blocks <= s.Smr_stats.retired))

let deaf_stall_delays_but_recovers () =
  (* A stalled thread that does not serve pings blocks POP reclaimers
     for the stall's duration (Assumption 1's bounded time), but the run
     must finish consistent once the thread wakes up. *)
  let r =
    Runner.run
      {
        Runner.default_cfg with
        ds = Dispatch.HML;
        smr = Dispatch.HPPOP;
        threads = 3;
        duration = 0.8;
        key_range = 256;
        reclaim_freq = 32;
        stall =
          Some
            { Runner.stall_tid = 0; stall_after = 0.1; stall_for = 0.3; stall_polling = false };
      }
  in
  Alcotest.(check bool) "consistent after deaf stall" true (Runner.consistent r)

(* Tentpole regression: a thread that goes deaf for the REST of the run
   (stall_for far exceeds the duration; the wake-on-stop hook ends the
   stall) used to wedge every ping round and hang the run at
   Domain.join. With the bounded handshake the run must terminate on
   time, stay memory-safe under the conservative fallback, and record
   the timeouts it took. *)
let runner_deaf smr =
  Runner.run
    {
      Runner.default_cfg with
      ds = Dispatch.HML;
      smr;
      threads = 3;
      duration = 0.8;
      key_range = 256;
      reclaim_freq = 32;
      ping_timeout_spins = 20;
      stall =
        Some
          { Runner.stall_tid = 0; stall_after = 0.1; stall_for = 10.0; stall_polling = false };
    }

let check_deaf name (r : Runner.result) =
  Alcotest.(check bool) (name ^ ": consistent") true (Runner.consistent r);
  Alcotest.(check int) (name ^ ": no UAF") 0 r.Runner.uaf;
  Alcotest.(check int) (name ^ ": no double free") 0 r.Runner.double_free;
  Alcotest.(check bool)
    (name ^ ": handshakes timed out")
    true
    (r.Runner.smr.Smr_stats.handshake_timeouts > 0)

let deaf_to_the_end smr =
  let name = Dispatch.smr_name smr in
  case
    (Printf.sprintf "deaf to the end: %s terminates safely" name)
    (fun () -> check_deaf name (runner_deaf smr))

let suite =
  [
    case "epoch-pop reclaims past a delayed thread" epoch_pop_reclaims_past_delayed_thread;
    case "epoch-pop default C: pending stays within one threshold"
      epoch_pop_default_c_bounds_pending;
    case "ebr blocked by a delayed thread" ebr_blocked_by_delayed_thread;
    case "hp-pop garbage bounded by N*H (Property 3)" hp_pop_bound_is_reservation_count;
    case "runner stall: ebr unbounded vs epoch-pop bounded" stalled_ebr_vs_epoch_pop;
    case "runner stall: hp-pop stays bounded" stalled_hp_pop_stays_bounded;
    case "deaf stall delays reclaimers but recovers" deaf_stall_delays_but_recovers;
  ]
  @ List.map stalled_era_scheme_plateaus Dispatch.[ HEPOP; HE ]
  @ List.map deaf_to_the_end Dispatch.[ EPOCHPOP; HPPOP; HEPOP; NBR; HPASYM; CADENCE ]
