(** Crash-tolerant thread churn: the orphanage hand-off (a departing
    thread's retire buffer is donated and adopted exactly once, never
    leaked), the failure detector (a crashed, never-polling peer is
    suspected, quarantined and skipped), and the bounded-garbage
    contrast (HP/POP-family garbage stays bounded by the crashed
    thread's reservation row while EBR's grows behind its frozen
    epoch). Scheme-level micro-scenarios first, then full Runner-driven
    churn schedules under the SmrSan sanitizer. *)

open Pop_core
open Tu
open Pop_harness

(* ------------------------------------------------------------------ *)
(* Orphanage: deregister donates, a surviving peer adopts and drains    *)
(* ------------------------------------------------------------------ *)

(* The PR-4 regression (satellite a): before the orphanage, a thread
   that deregistered with a non-empty retire buffer leaked it — the
   nodes stayed unreclaimed forever. Now the buffer is donated and the
   next surviving scan adopts and frees it. *)
let donate_adopt_drains (name, (module R : Smr.S)) () =
  let rig = make_rig ~max_threads:2 ~reclaim_freq:4 () in
  let g = R.create rig.cfg rig.hub rig.heap in
  let ctx0 = R.register g ~tid:0 in
  let d =
    Domain.spawn (fun () ->
        let ctx1 = R.register g ~tid:1 in
        (* Stay below the threshold so the buffer is non-empty at exit. *)
        for _ = 1 to 3 do
          R.retire ctx1 (R.alloc ctx1)
        done;
        R.deregister ctx1)
  in
  Domain.join d;
  (* The survivor's ordinary retire/scan traffic must pick the orphans
     up; no dedicated "reap" call exists or is needed. *)
  for _ = 1 to 60 do
    R.retire ctx0 (R.alloc ctx0);
    R.poll ctx0
  done;
  R.flush ctx0;
  Alcotest.(check int) (name ^ ": drains to zero") 0 (R.unreclaimed g);
  let s = R.stats g in
  Alcotest.(check int)
    (name ^ ": adoption is exactly-once")
    s.Smr_stats.orphans_donated s.Smr_stats.orphans_adopted;
  Alcotest.(check int) (name ^ ": no double free") 0
    (Pop_sim.Heap.double_free_count rig.heap);
  Alcotest.(check int) (name ^ ": no UAF") 0 (Pop_sim.Heap.uaf_count rig.heap)

(* Several donors racing one adopter: every donated node is freed
   exactly once and the orphanage is empty at quiescence. *)
let orphans_exactly_once_concurrent () =
  let module R = Hazard_ptr_pop in
  let rig = make_rig ~max_threads:4 ~reclaim_freq:4 () in
  let g = R.create rig.cfg rig.hub rig.heap in
  let ctx0 = R.register g ~tid:0 in
  let doms =
    List.init 3 (fun i ->
        Domain.spawn (fun () ->
            let ctx = R.register g ~tid:(i + 1) in
            for _ = 1 to 40 do
              R.retire ctx (R.alloc ctx);
              R.poll ctx
            done;
            R.deregister ctx))
  in
  (* Keep scanning while the donors leave, then drain. *)
  for _ = 1 to 200 do
    R.retire ctx0 (R.alloc ctx0);
    R.poll ctx0
  done;
  List.iter Domain.join doms;
  R.flush ctx0;
  Alcotest.(check int) "drains to zero" 0 (R.unreclaimed g);
  let s = R.stats g in
  Alcotest.(check int) "adopted = donated" s.Smr_stats.orphans_donated
    s.Smr_stats.orphans_adopted;
  Alcotest.(check int) "no double free" 0 (Pop_sim.Heap.double_free_count rig.heap);
  Alcotest.(check int) "no UAF" 0 (Pop_sim.Heap.uaf_count rig.heap)

(* ------------------------------------------------------------------ *)
(* Failure detector: a crashed peer is quarantined; garbage stays       *)
(* bounded by its reservation row, not by time                          *)
(* ------------------------------------------------------------------ *)

(* A "crash" at this level: register, open an operation, take a
   reservation, and never touch the context again — the soft-signal
   slot stays active and deaf forever. *)

let hp_pop_crashed_peer_is_quarantined () =
  (let module Rig__ = Smr_rig (Hazard_ptr_pop) in
   Rig__.run)
    ~reclaim_freq:8
    (fun rig g ctx0 ->
      let d =
        Domain.spawn (fun () ->
            let ctx1 = Hazard_ptr_pop.register g ~tid:1 in
            Hazard_ptr_pop.start_op ctx1;
            let n = Hazard_ptr_pop.alloc ctx1 in
            ignore (Hazard_ptr_pop.read ctx1 0 (Atomic.make n) Fun.id))
      in
      Domain.join d;
      for _ = 1 to 200 do
        Hazard_ptr_pop.retire ctx0 (Hazard_ptr_pop.alloc ctx0)
      done;
      Hazard_ptr_pop.flush ctx0;
      let s = Hazard_ptr_pop.stats g in
      Alcotest.(check bool) "handshakes timed out" true
        (s.Smr_stats.handshake_timeouts >= 3);
      Alcotest.(check bool) "peer suspected" true (s.Smr_stats.suspects >= 1);
      Alcotest.(check bool) "later rounds skipped the quarantined peer" true
        (s.Smr_stats.quarantine_rounds >= 1);
      (* The crashed peer pins at most its max_hp racy row; the rest of
         the 200 retired nodes must have been freed. *)
      let bound = rig.cfg.Smr_config.max_hp + 8 in
      Alcotest.(check bool)
        (Printf.sprintf "garbage bounded by the crashed row (%d <= %d)"
           (Hazard_ptr_pop.unreclaimed g) bound)
        true
        (Hazard_ptr_pop.unreclaimed g <= bound);
      Alcotest.(check int) "no UAF" 0 (Pop_sim.Heap.uaf_count rig.heap))

let epoch_pop_crash_excluded_from_epoch_floor () =
  (let module Rig__ = Smr_rig (Epoch_pop) in
   Rig__.run)
    ~reclaim_freq:8
    (fun rig g ctx0 ->
      let d =
        Domain.spawn (fun () ->
            let ctx1 = Epoch_pop.register g ~tid:1 in
            Epoch_pop.start_op ctx1;
            let n = Epoch_pop.alloc ctx1 in
            ignore (Epoch_pop.read ctx1 0 (Atomic.make n) Fun.id))
      in
      Domain.join d;
      (* Until quarantine, the crashed peer's frozen epoch announcement
         is honoured as a floor and garbage grows; once quarantined it
         is excluded from the floor and only its racy row pins nodes. *)
      for _ = 1 to 300 do
        Epoch_pop.retire ctx0 (Epoch_pop.alloc ctx0)
      done;
      Epoch_pop.flush ctx0;
      let s = Epoch_pop.stats g in
      Alcotest.(check bool) "peer suspected" true (s.Smr_stats.suspects >= 1);
      let bound = 2 * rig.cfg.Smr_config.max_hp in
      Alcotest.(check bool)
        (Printf.sprintf "garbage bounded after quarantine (%d <= %d)"
           (Epoch_pop.unreclaimed g) bound)
        true
        (Epoch_pop.unreclaimed g <= bound);
      Alcotest.(check int) "no UAF" 0 (Pop_sim.Heap.uaf_count rig.heap))

let ebr_crash_pins_everything () =
  (let module Rig__ = Smr_rig (Pop_baselines.Ebr) in
   Rig__.run)
    ~reclaim_freq:8
    (fun _rig g ctx0 ->
      let open Pop_baselines in
      let d =
        Domain.spawn (fun () ->
            let ctx1 = Ebr.register g ~tid:1 in
            Ebr.start_op ctx1)
      in
      Domain.join d;
      for _ = 1 to 200 do
        Ebr.retire ctx0 (Ebr.alloc ctx0)
      done;
      Ebr.flush ctx0;
      (* No failure detector can save an epoch floor that is part of the
         safety argument: everything retired since the crash is pinned
         forever. This is the contrast the churn figure quantifies. *)
      Alcotest.(check int) "all 200 pinned" 200 (Ebr.unreclaimed g))

(* ------------------------------------------------------------------ *)
(* SmrSan churn typestate: recycled tids and double claims              *)
(* ------------------------------------------------------------------ *)

module C = Pop_check.Smr_check.Make (Pop_baselines.Ebr)

let join_on_recycled_tid_is_clean () =
  let rig = make_rig () in
  let g = C.create rig.cfg rig.hub rig.heap in
  let ctx0 = C.register g ~tid:0 in
  let d =
    Domain.spawn (fun () ->
        let ctx1 = C.register g ~tid:1 in
        C.start_op ctx1;
        C.end_op ctx1;
        C.retire ctx1 (C.alloc ctx1);
        C.deregister ctx1;
        (* A join on the cleanly released tid starts from a fresh,
           quiescent typestate: ordinary use must stay violation-free. *)
        let ctx1' = C.register g ~tid:1 in
        C.start_op ctx1';
        let n = C.alloc ctx1' in
        let v = C.read ctx1' 0 (Atomic.make n) Fun.id in
        C.check ctx1' v;
        C.end_op ctx1';
        C.retire ctx1' n;
        C.flush ctx1';
        C.deregister ctx1')
  in
  Domain.join d;
  C.flush ctx0;
  C.deregister ctx0;
  Alcotest.(check int) "no violations" 0 (Pop_check.Smr_check.total (C.violations g))

let double_claim_is_churn_misuse () =
  let rig = make_rig () in
  let g = C.create rig.cfg rig.hub rig.heap in
  let _ctx1 = C.register g ~tid:1 in
  (* The previous tid-1 context never deregistered (it "crashed"):
     claiming the tid again is churn misuse. [`Raise] stops the call
     before it reaches the scheme, which would also refuse it. *)
  C.set_mode g `Raise;
  (match C.register g ~tid:1 with
  | _ -> Alcotest.fail "double claim not flagged"
  | exception Pop_check.Smr_check.Violation _ -> ());
  C.set_mode g `Count;
  Alcotest.(check int) "counted as churn misuse" 1 (C.violations g).Pop_check.Smr_check.churn_misuse

(* ------------------------------------------------------------------ *)
(* Runner-driven churn schedules, sanitized                             *)
(* ------------------------------------------------------------------ *)

let runner_churn ?(ds = Dispatch.HML) ?(threads = 4) ?(exits = 1) ?(crashes = 1) ?(joins = 1)
    ?(duration = 0.5) ?stall smr =
  Runner.run
    {
      Runner.default_cfg with
      ds;
      smr;
      threads;
      duration;
      key_range = 256;
      reclaim_freq = 32;
      ping_timeout_spins = 20;
      sanitize = true;
      stall;
      churn =
        Some
          {
            Runner.exits;
            crashes;
            joins;
            churn_start = 0.2 *. duration;
            churn_period = 0.1 *. duration;
          };
    }

(* The tier-1 churn cell: every scheme survives a fixed-seed schedule of
   one clean exit, one mid-operation crash and one join, stays
   size-consistent and memory-safe, and reports zero SmrSan
   violations. *)
let churn_all_schemes_sanitized () =
  List.iter
    (fun smr ->
      let name = Dispatch.smr_name smr in
      let r = runner_churn smr in
      Alcotest.(check bool) (name ^ ": consistent") true (Runner.consistent r);
      Alcotest.(check int) (name ^ ": no violations") 0 r.Runner.smr.Smr_stats.violations;
      Alcotest.(check bool)
        (Printf.sprintf "%s: churn happened (%d/%d/%d)" name r.Runner.exited
           r.Runner.crashed r.Runner.joined)
        true
        (r.Runner.exited + r.Runner.crashed >= 1))
    Dispatch.all_smr

(* The bounded-garbage acceptance claim at system scale: under crash
   churn, EBR's garbage keeps growing behind the dead threads' frozen
   epochs while HazardPtrPOP quarantines them and keeps reclaiming. *)
let crash_churn_ebr_vs_hp_pop () =
  let ebr = runner_churn ~crashes:2 ~duration:0.8 Dispatch.EBR in
  let hpp = runner_churn ~crashes:2 ~duration:0.8 Dispatch.HPPOP in
  Alcotest.(check bool) "both consistent" true
    (Runner.consistent ebr && Runner.consistent hpp);
  Alcotest.(check bool) "crashes fired" true
    (ebr.Runner.crashed >= 1 && hpp.Runner.crashed >= 1);
  Alcotest.(check bool) "hp-pop suspected the crashed peers" true
    (hpp.Runner.smr.Smr_stats.suspects >= 1);
  Alcotest.(check bool) "hp-pop skipped quarantined rounds" true
    (hpp.Runner.smr.Smr_stats.quarantine_rounds >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "ebr garbage (%d) >> hp-pop garbage (%d)"
       ebr.Runner.final_unreclaimed hpp.Runner.final_unreclaimed)
    true
    (ebr.Runner.final_unreclaimed > 2 * hpp.Runner.final_unreclaimed)

(* Every structure's own [pin] runs in a stall and in a crash: four
   workers, worker 0 stalled (polling) across the churn window of one
   exit, one crash and one join, sanitized. Under nbr the stalled
   worker's neutralization lands inside the pin. *)
let pins_under_churn ds () =
  List.iter
    (fun smr ->
      let name = Dispatch.ds_name ds ^ "/" ^ Dispatch.smr_name smr in
      let stall =
        { Runner.stall_tid = 0; stall_after = 0.03; stall_for = 0.15; stall_polling = true }
      in
      let r = runner_churn ~ds ~duration:0.3 ~stall smr in
      Alcotest.(check bool) (name ^ ": consistent") true (Runner.consistent r);
      Alcotest.(check int) (name ^ ": no use after free") 0 r.Runner.uaf;
      Alcotest.(check int) (name ^ ": no violations") 0 r.Runner.smr.Smr_stats.violations;
      Alcotest.(check bool)
        (Printf.sprintf "%s: exit, crash and join all fired (%d/%d/%d)" name r.Runner.exited
           r.Runner.crashed r.Runner.joined)
        true
        (r.Runner.exited >= 1 && r.Runner.crashed >= 1 && r.Runner.joined >= 1))
    [ Dispatch.HPPOP; Dispatch.NBR ]

(* The crashed operation must keep its pin: under EBR a worker that dies
   inside an operation freezes the epoch, so everything retired after
   the crash (at 20% of the run) stays unreclaimed, and the garbage
   left is most of what was retired. A crash that closed its operation
   lets EBR reclaim as usual: such a copy ends with a few hundred nodes
   against tens of thousands retired. The bound is a share of the run's
   own retires, so it holds at any throughput. *)
let crash_pins_ebr ds () =
  let r = runner_churn ~ds ~threads:3 ~exits:0 ~joins:0 ~duration:0.3 Dispatch.EBR in
  let retired = r.Runner.smr.Smr_stats.retired in
  Alcotest.(check bool) "consistent" true (Runner.consistent r);
  Alcotest.(check int) "one crash" 1 r.Runner.crashed;
  Alcotest.(check bool)
    (Printf.sprintf "%s: garbage pinned (%d of %d retired)" (Dispatch.ds_name ds)
       r.Runner.final_unreclaimed retired)
    true
    (2 * r.Runner.final_unreclaimed > retired)

let suite =
  List.map
    (fun (name, smr) ->
      case ("exit donates, survivor drains: " ^ name) (donate_adopt_drains (name, smr)))
    reclaiming_smrs
  @ [
      case "orphan hand-off is exactly-once under churn" orphans_exactly_once_concurrent;
      case "hp-pop: crashed peer quarantined, garbage bounded"
        hp_pop_crashed_peer_is_quarantined;
      case "epoch-pop: crashed peer excluded from the epoch floor"
        epoch_pop_crash_excluded_from_epoch_floor;
      case "ebr: a crashed peer pins everything forever" ebr_crash_pins_everything;
      case "smrsan: join on a recycled tid is clean" join_on_recycled_tid_is_clean;
      case "smrsan: double tid claim is churn misuse" double_claim_is_churn_misuse;
      case "runner churn: every scheme survives, sanitized" churn_all_schemes_sanitized;
      case "runner crash churn: ebr unbounded vs hp-pop bounded" crash_churn_ebr_vs_hp_pop;
    ]
  @ List.concat_map
      (fun ds ->
        let n = Dispatch.ds_name ds in
        [
          case ("runner churn + stall: " ^ n ^ " pins hold, sanitized") (pins_under_churn ds);
          case ("runner crash: " ^ n ^ " pins ebr's epoch") (crash_pins_ebr ds);
        ])
      Dispatch.all_ds_ext
