(** Tests for the soft-signal hub (the pthread_kill stand-in). *)

open Pop_runtime
open Tu

let register_bounds () =
  let h = Softsignal.create ~max_threads:2 in
  Alcotest.(check int) "capacity" 2 (Softsignal.max_threads h);
  let _p = Softsignal.register h ~tid:0 in
  Alcotest.check_raises "double register" (Invalid_argument "Softsignal.register: slot already active")
    (fun () -> ignore (Softsignal.register h ~tid:0));
  Alcotest.check_raises "out of range" (Invalid_argument "Softsignal.register: tid out of range")
    (fun () -> ignore (Softsignal.register h ~tid:2))

let ping_inactive_skipped () =
  let h = Softsignal.create ~max_threads:2 in
  Alcotest.(check bool) "ESRCH analogue" false (Softsignal.ping h 1);
  Alcotest.(check int) "no pings recorded" 0 (Softsignal.pings_sent h)

let poll_runs_handler_once () =
  let h = Softsignal.create ~max_threads:2 in
  let p = Softsignal.register h ~tid:0 in
  let runs = ref 0 in
  Softsignal.set_handler p (fun () -> incr runs);
  Softsignal.poll p;
  Alcotest.(check int) "no ping, no run" 0 !runs;
  Alcotest.(check bool) "ping delivered" true (Softsignal.ping h 0);
  Alcotest.(check bool) "pending" true (Softsignal.pending p);
  Softsignal.poll p;
  Alcotest.(check int) "one run" 1 !runs;
  Softsignal.poll p;
  Alcotest.(check int) "flag consumed" 1 !runs

let pings_coalesce () =
  let h = Softsignal.create ~max_threads:2 in
  let p = Softsignal.register h ~tid:0 in
  let runs = ref 0 in
  Softsignal.set_handler p (fun () -> incr runs);
  ignore (Softsignal.ping h 0);
  ignore (Softsignal.ping h 0);
  ignore (Softsignal.ping h 0);
  Softsignal.poll p;
  Alcotest.(check int) "coalesced to one run" 1 !runs;
  Alcotest.(check int) "all pings counted" 3 (Softsignal.pings_sent h)

let ping_during_handler_stays_pending () =
  let h = Softsignal.create ~max_threads:2 in
  let p = Softsignal.register h ~tid:0 in
  let runs = ref 0 in
  Softsignal.set_handler p (fun () ->
      incr runs;
      (* A ping arriving while the handler runs must not be lost. *)
      if !runs = 1 then ignore (Softsignal.ping h 0));
  ignore (Softsignal.ping h 0);
  Softsignal.poll p;
  Alcotest.(check bool) "still pending" true (Softsignal.pending p);
  Softsignal.poll p;
  Alcotest.(check int) "second run" 2 !runs

let ping_all_excludes_self () =
  let h = Softsignal.create ~max_threads:3 in
  let p0 = Softsignal.register h ~tid:0 in
  let p1 = Softsignal.register h ~tid:1 in
  Softsignal.ping_all h ~self:0;
  Alcotest.(check bool) "self not pinged" false (Softsignal.pending p0);
  Alcotest.(check bool) "peer pinged" true (Softsignal.pending p1);
  Alcotest.(check int) "dead slot skipped" 1 (Softsignal.pings_sent h)

let deregister_serves_pending () =
  let h = Softsignal.create ~max_threads:2 in
  let p = Softsignal.register h ~tid:0 in
  let runs = ref 0 in
  Softsignal.set_handler p (fun () -> incr runs);
  ignore (Softsignal.ping h 0);
  Softsignal.deregister p;
  Alcotest.(check int) "final handler run" 1 !runs;
  Alcotest.(check bool) "inactive" false (Softsignal.is_active h 0);
  Alcotest.(check bool) "pings now skipped" false (Softsignal.ping h 0)

let reregister_after_deregister () =
  let h = Softsignal.create ~max_threads:2 in
  let p = Softsignal.register h ~tid:0 in
  Softsignal.deregister p;
  let p' = Softsignal.register h ~tid:0 in
  Alcotest.(check bool) "slot reusable" true (Softsignal.is_active h 0);
  Alcotest.(check int) "tid preserved" 0 (Softsignal.tid p')

let cross_domain_delivery () =
  let h = Softsignal.create ~max_threads:2 in
  let p0 = Softsignal.register h ~tid:0 in
  let served = Atomic.make 0 in
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let p1 = Softsignal.register h ~tid:1 in
        Softsignal.set_handler p1 (fun () -> Atomic.incr served);
        while not (Atomic.get stop) do
          Softsignal.poll p1
        done;
        Softsignal.deregister p1)
  in
  (* Wait for the peer to register, ping it, and wait for the handler. *)
  while not (Softsignal.is_active h 1) do
    Domain.cpu_relax ()
  done;
  ignore (Softsignal.ping h 1);
  let t0 = Pop_runtime.Clock.now () in
  while Atomic.get served = 0 && Pop_runtime.Clock.elapsed t0 < 5.0 do
    Softsignal.poll p0;
    Domain.cpu_relax ()
  done;
  Atomic.set stop true;
  Domain.join d;
  Alcotest.(check int) "handler ran in peer" 1 (Atomic.get served);
  Alcotest.(check int) "handler_runs counter" 1 (Softsignal.handler_runs h)

(* Regression for the deregister race: a ping that lands during the
   final courtesy poll (here simulated by the handler re-pinging its own
   slot) used to leave the pending flag raised on a dead slot, so the
   next thread to reuse the slot inherited a phantom ping and ran its
   handler with no ping in flight. Deregister must clear the flag after
   the slot goes inactive. *)
let deregister_clears_stale_pending () =
  let h = Softsignal.create ~max_threads:2 in
  let p = Softsignal.register h ~tid:0 in
  Softsignal.set_handler p (fun () -> ignore (Softsignal.ping h 0));
  ignore (Softsignal.ping h 0);
  Softsignal.deregister p;
  Alcotest.(check bool) "no stale pending on dead slot" false (Softsignal.pending p);
  (* The reused slot must start clean: no phantom handler run. *)
  let p' = Softsignal.register h ~tid:0 in
  let runs = ref 0 in
  Softsignal.set_handler p' (fun () -> incr runs);
  Softsignal.poll p';
  Alcotest.(check int) "fresh slot sees no phantom ping" 0 !runs

let fault_drop_ping () =
  let h = Softsignal.create ~max_threads:2 in
  Softsignal.inject_faults h ~seed:11 ~drop_ping:1.0 ~delay_poll:0.0;
  let p = Softsignal.register h ~tid:0 in
  let runs = ref 0 in
  Softsignal.set_handler p (fun () -> incr runs);
  (* The sender cannot tell a dropped ping from a delivered one. *)
  Alcotest.(check bool) "drop looks like success" true (Softsignal.ping h 0);
  Alcotest.(check bool) "but nothing is pending" false (Softsignal.pending p);
  Softsignal.poll p;
  Alcotest.(check int) "handler never runs" 0 !runs;
  Alcotest.(check int) "send counted" 1 (Softsignal.pings_sent h);
  Alcotest.(check int) "drop counted" 1 (Softsignal.pings_dropped h);
  Softsignal.clear_faults h;
  ignore (Softsignal.ping h 0);
  Softsignal.poll p;
  Alcotest.(check int) "delivery restored" 1 !runs

let fault_delay_poll () =
  let h = Softsignal.create ~max_threads:2 in
  Softsignal.inject_faults h ~seed:3 ~drop_ping:0.0 ~delay_poll:1.0;
  let p = Softsignal.register h ~tid:0 in
  let runs = ref 0 in
  Softsignal.set_handler p (fun () -> incr runs);
  ignore (Softsignal.ping h 0);
  Softsignal.poll p;
  Softsignal.poll p;
  Alcotest.(check int) "polls deferred" 0 !runs;
  Alcotest.(check bool) "ping still pending" true (Softsignal.pending p);
  Alcotest.(check bool) "delays counted" true (Softsignal.polls_delayed h >= 2);
  Softsignal.clear_faults h;
  Softsignal.poll p;
  Alcotest.(check int) "deferred ping eventually served" 1 !runs

let fault_validation () =
  let h = Softsignal.create ~max_threads:2 in
  Alcotest.check_raises "probability out of range"
    (Invalid_argument "Softsignal.inject_faults: probabilities must be in [0,1]") (fun () ->
      Softsignal.inject_faults h ~seed:0 ~drop_ping:1.5 ~delay_poll:0.0)

(* --- Heartbeat contract: +1 per poll, +1 per register, per slot --- *)

let hb h = Softsignal.heartbeat h 0

let heartbeat_one_per_poll () =
  let h = Softsignal.create ~max_threads:2 in
  let p = Softsignal.register h ~tid:0 in
  let runs = ref 0 in
  Softsignal.set_handler p (fun () -> incr runs);
  let step label =
    let before = hb h in
    Softsignal.poll p;
    Alcotest.(check int) label (before + 1) (hb h)
  in
  step "no ping pending";
  ignore (Softsignal.ping h 0);
  step "ping consumed";
  Alcotest.(check int) "handler ran" 1 !runs;
  Softsignal.inject_faults h ~seed:5 ~drop_ping:0.0 ~delay_poll:1.0;
  ignore (Softsignal.ping h 0);
  step "ping deferred by delay_poll";
  Alcotest.(check bool) "still pending" true (Softsignal.pending p);
  Alcotest.(check int) "handler deferred" 1 !runs

let heartbeat_one_per_register () =
  let h = Softsignal.create ~max_threads:2 in
  Alcotest.(check int) "fresh hub" 0 (hb h);
  let p = Softsignal.register h ~tid:0 in
  Alcotest.(check int) "first register" 1 (hb h);
  Softsignal.deregister p;
  let after_leave = hb h in
  ignore (Softsignal.register h ~tid:0);
  Alcotest.(check int) "re-register" (after_leave + 1) (hb h)

let heartbeats_are_per_port () =
  let h = Softsignal.create ~max_threads:2 in
  let p0 = Softsignal.register h ~tid:0 and p1 = Softsignal.register h ~tid:1 in
  for _ = 1 to 5 do
    Softsignal.poll p0
  done;
  Softsignal.poll p1;
  Alcotest.(check int) "port 0" 6 (Softsignal.heartbeat h 0);
  Alcotest.(check int) "port 1" 2 (Softsignal.heartbeat h 1)

(* The layout promise of [Padded], by index arithmetic alone: indices 8
   apart can never share a 64-byte line, whatever the block alignment. *)
let padded_layout () =
  for max_threads = 1 to 9 do
    for width = 1 to 9 do
      let t = Padded.create ~max_threads ~width 0 in
      let len = Array.length (Padded.block t) in
      let owner = Array.make len (-1) in
      for tid = 0 to max_threads - 1 do
        for i = 0 to width - 1 do
          let at = Padded.base t tid + i in
          let where = Printf.sprintf "threads=%d width=%d tid=%d slot=%d" max_threads width tid i in
          Alcotest.(check bool) (where ^ ": 8 words after the start") true (at >= 8);
          Alcotest.(check bool) (where ^ ": 8 words before the end") true (at <= len - 9);
          Alcotest.(check int) (where ^ ": no overlap") (-1) owner.(at);
          owner.(at) <- tid
        done
      done;
      Array.iteri
        (fun a ta ->
          if ta >= 0 then
            Array.iteri
              (fun b tb ->
                if tb >= 0 && tb <> ta && abs (a - b) < 8 then
                  Alcotest.failf "threads=%d width=%d: slots %d (tid %d) and %d (tid %d) share a line"
                    max_threads width a ta b tb)
              owner)
        owner
    done
  done

let suite =
  [
    case "register bounds and double registration" register_bounds;
    case "ping to inactive slot is skipped" ping_inactive_skipped;
    case "poll runs handler exactly once per ping" poll_runs_handler_once;
    case "concurrent pings coalesce" pings_coalesce;
    case "ping during handler stays pending" ping_during_handler_stays_pending;
    case "ping_all excludes self and dead slots" ping_all_excludes_self;
    case "deregister serves the pending ping" deregister_serves_pending;
    case "slot reusable after deregister" reregister_after_deregister;
    case "cross-domain delivery" cross_domain_delivery;
    case "deregister clears a stale pending flag" deregister_clears_stale_pending;
    case "fault injection: dropped pings" fault_drop_ping;
    case "fault injection: delayed polls" fault_delay_poll;
    case "fault injection: probability validation" fault_validation;
    case "heartbeat: +1 per poll, pending or not" heartbeat_one_per_poll;
    case "heartbeat: +1 per register" heartbeat_one_per_register;
    case "heartbeat: ports move independently" heartbeats_are_per_port;
    case "padded: rows never share a line" padded_layout;
  ]
