(** Tests for pop_core's shared machinery: Id_set, Reservations,
    Handshake, Smr_config, the Reclaimer's statistics. *)

open Pop_runtime
open Pop_core
open Tu

(* --- Id_set --- *)

let id_set_basic () =
  let s = Id_set.create ~capacity:8 in
  Id_set.add s 5;
  Id_set.add s 1;
  Id_set.add s 9;
  Id_set.seal s;
  Alcotest.(check int) "cardinal" 3 (Id_set.cardinal s);
  Alcotest.(check bool) "mem 5" true (Id_set.mem s 5);
  Alcotest.(check bool) "mem 1" true (Id_set.mem s 1);
  Alcotest.(check bool) "mem 9" true (Id_set.mem s 9);
  Alcotest.(check bool) "not mem 2" false (Id_set.mem s 2);
  Alcotest.(check (option int)) "min" (Some 1) (Id_set.min_elt s)

let id_set_reset_and_fill () =
  let s = Id_set.create ~capacity:8 in
  Id_set.fill s ~except:(-1) [| 3; -1; 7; -1; 3 |] 5;
  Id_set.seal s;
  Alcotest.(check int) "except skipped, dups kept" 3 (Id_set.cardinal s);
  Alcotest.(check bool) "mem 3" true (Id_set.mem s 3);
  Alcotest.(check bool) "except absent" false (Id_set.mem s (-1));
  Id_set.reset s;
  Alcotest.(check int) "empty after reset" 0 (Id_set.cardinal s);
  Id_set.seal s;
  Alcotest.(check (option int)) "min of empty" None (Id_set.min_elt s)

let id_set_min_requires_sealed () =
  let s = Id_set.create ~capacity:4 in
  Id_set.add s 2;
  Alcotest.check_raises "min before seal" (Invalid_argument "Id_set.min_elt: set not sealed")
    (fun () -> ignore (Id_set.min_elt s))

let id_set_exists_in_range () =
  let s = Id_set.create ~capacity:8 in
  List.iter (Id_set.add s) [ 3; 8; 8; 15 ];
  Id_set.seal s;
  Alcotest.(check bool) "hit exact" true (Id_set.exists_in_range s ~lo:8 ~hi:8);
  Alcotest.(check bool) "hit interior" true (Id_set.exists_in_range s ~lo:4 ~hi:9);
  Alcotest.(check bool) "hit at hi" true (Id_set.exists_in_range s ~lo:1 ~hi:3);
  Alcotest.(check bool) "miss gap" false (Id_set.exists_in_range s ~lo:9 ~hi:14);
  Alcotest.(check bool) "miss below" false (Id_set.exists_in_range s ~lo:0 ~hi:2);
  Alcotest.(check bool) "miss above" false (Id_set.exists_in_range s ~lo:16 ~hi:100);
  Alcotest.(check bool) "empty range" false (Id_set.exists_in_range s ~lo:9 ~hi:8);
  let e = Id_set.create ~capacity:2 in
  Id_set.seal e;
  Alcotest.(check bool) "empty set" false (Id_set.exists_in_range e ~lo:min_int ~hi:max_int)

(* Quicksort worst cases: pre-sorted input and all-duplicates input must
   not blow the stack (the recursion only descends into the smaller
   partition, so depth is O(log n)). *)
let id_set_sort_stress () =
  let n = 100_000 in
  let sorted = Id_set.create ~capacity:n in
  for i = 0 to n - 1 do
    Id_set.add sorted i
  done;
  Id_set.seal sorted;
  Alcotest.(check (option int)) "sorted: min" (Some 0) (Id_set.min_elt sorted);
  Alcotest.(check bool) "sorted: mem last" true (Id_set.mem sorted (n - 1));
  let rev = Id_set.create ~capacity:n in
  for i = n - 1 downto 0 do
    Id_set.add rev i
  done;
  Id_set.seal rev;
  Alcotest.(check bool) "reversed: mem mid" true (Id_set.mem rev (n / 2));
  let dups = Id_set.create ~capacity:n in
  for _ = 1 to n do
    Id_set.add dups 7
  done;
  Id_set.seal dups;
  Alcotest.(check (option int)) "duplicates: min" (Some 7) (Id_set.min_elt dups);
  Alcotest.(check bool) "duplicates: mem" true (Id_set.mem dups 7);
  Alcotest.(check bool) "duplicates: not mem" false (Id_set.mem dups 8)

let id_set_capacity () =
  let s = Id_set.create ~capacity:2 in
  Id_set.add s 1;
  Id_set.add s 2;
  Alcotest.check_raises "overflow" (Invalid_argument "Id_set.add: capacity exceeded") (fun () ->
      Id_set.add s 3)

let id_set_unsealed_mem_rejected () =
  let s = Id_set.create ~capacity:4 in
  Id_set.add s 3;
  Alcotest.check_raises "mem before seal" (Invalid_argument "Id_set.mem: set not sealed")
    (fun () -> ignore (Id_set.mem s 3));
  Id_set.seal s;
  Alcotest.(check bool) "mem after seal" true (Id_set.mem s 3);
  (* A post-seal add unseals the set again: the sorted invariant no
     longer holds, so mem must refuse rather than silently miss. *)
  Id_set.add s 1;
  Alcotest.check_raises "mem after post-seal add"
    (Invalid_argument "Id_set.mem: set not sealed") (fun () -> ignore (Id_set.mem s 1));
  Id_set.seal s;
  Alcotest.(check bool) "re-sealed" true (Id_set.mem s 1)

let id_set_model =
  QCheck2.Test.make ~name:"id_set mem = List.mem" ~count:300
    QCheck2.Gen.(pair (list_size (int_range 0 50) (int_range (-20) 20)) (int_range (-25) 25))
    (fun (xs, probe) ->
      let s = Id_set.create ~capacity:64 in
      List.iter (Id_set.add s) xs;
      Id_set.seal s;
      Id_set.mem s probe = List.mem probe xs)

(* [exists_in_range] against the naive reference, with the generator
   biased onto the boundaries the block fast path leans on: the empty
   set, inverted ranges (lo > hi must be false, it encodes "no common
   era" blocks), and hi = max_int (a block holding unretired nodes
   whose default retire_era is max_int probes up to the sentinel). *)
let id_set_range_model =
  let bound =
    QCheck2.Gen.(
      frequency [ (4, int_range (-25) 25); (1, return max_int); (1, return min_int) ])
  in
  QCheck2.Test.make ~name:"id_set exists_in_range = List.exists" ~count:500
    QCheck2.Gen.(triple (list_size (int_range 0 50) (int_range (-20) 20)) bound bound)
    (fun (xs, lo, hi) ->
      let s = Id_set.create ~capacity:64 in
      List.iter (Id_set.add s) xs;
      Id_set.seal s;
      Id_set.exists_in_range s ~lo ~hi = List.exists (fun x -> lo <= x && x <= hi) xs)

(* --- Reservations --- *)

let reservations_local_shared () =
  let r = Reservations.create ~max_threads:2 ~slots:3 ~none:(-1) in
  Alcotest.(check int) "slots" 3 (Reservations.slots r);
  Alcotest.(check int) "none" (-1) (Reservations.none r);
  Reservations.set_local r ~tid:0 ~slot:1 42;
  Alcotest.(check int) "local read back" 42 (Reservations.get_local r ~tid:0 ~slot:1);
  Alcotest.(check int) "shared untouched" (-1) (Reservations.get_shared r ~tid:0 ~slot:1);
  Reservations.publish r ~tid:0;
  Alcotest.(check int) "published" 42 (Reservations.get_shared r ~tid:0 ~slot:1);
  Reservations.clear_local r ~tid:0;
  Alcotest.(check int) "local cleared" (-1) (Reservations.get_local r ~tid:0 ~slot:1);
  Alcotest.(check int) "shared keeps stale value" 42 (Reservations.get_shared r ~tid:0 ~slot:1);
  Reservations.publish r ~tid:0;
  Alcotest.(check int) "republish overwrites" (-1) (Reservations.get_shared r ~tid:0 ~slot:1)

let reservations_collect () =
  let r = Reservations.create ~max_threads:2 ~slots:2 ~none:(-1) in
  Reservations.set_shared r ~tid:0 ~slot:0 7;
  Reservations.set_shared r ~tid:1 ~slot:1 8;
  let scratch = Array.make 4 0 in
  let k = Reservations.collect_shared r scratch in
  Alcotest.(check int) "all cells" 4 k;
  Alcotest.(check (list int)) "row-major order" [ 7; -1; -1; 8 ] (Array.to_list scratch);
  Reservations.set_local r ~tid:1 ~slot:0 99;
  let k = Reservations.collect_local r scratch in
  Alcotest.(check int) "local cells" 4 k;
  Alcotest.(check int) "local racy view" 99 scratch.(2)

let reservations_rows_are_views () =
  let r = Reservations.create ~max_threads:1 ~slots:2 ~none:0 in
  let block = Reservations.local_block r and base = Reservations.local_base r ~tid:0 in
  block.(base + 1) <- 5;
  Alcotest.(check int) "row aliases table" 5 (Reservations.get_local r ~tid:0 ~slot:1);
  let srow = Reservations.shared_row r ~tid:0 in
  Atomic.set srow.(1) 6;
  Alcotest.(check int) "shared row aliases" 6 (Reservations.get_shared r ~tid:0 ~slot:1)

(* --- Handshake --- *)

(* A handshake with the default config but a spin budget of [spins]. *)
let handshake ?(spins = 64) hub =
  Handshake.create { (Smr_config.default ()) with ping_timeout_spins = spins } hub

let handshake_skips_inactive () =
  let hub = Softsignal.create ~max_threads:3 in
  let p0 = Softsignal.register hub ~tid:0 in
  let hs = handshake hub in
  (* Only thread 0 is active: the wait returns immediately. *)
  Alcotest.(check int) "no active peers, no timeouts" 0 (Handshake.round hs ~port:p0)

let handshake_cross_domain () =
  let hub = Softsignal.create ~max_threads:2 in
  let p0 = Softsignal.register hub ~tid:0 in
  let hs = handshake hub in
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let p1 = Softsignal.register hub ~tid:1 in
        Softsignal.set_handler p1 (fun () -> Handshake.ack hs ~tid:1);
        while not (Atomic.get stop) do
          Softsignal.poll p1;
          Domain.cpu_relax ()
        done;
        Softsignal.deregister p1)
  in
  while not (Softsignal.is_active hub 1) do
    Domain.cpu_relax ()
  done;
  Alcotest.(check int) "responsive peer, no timeout" 0 (Handshake.round hs ~port:p0);
  Alcotest.(check bool) "peer acked" true (Handshake.get hs 1 >= 1);
  (* A second round requires a fresh ack, not the stale counter. *)
  ignore (Handshake.round hs ~port:p0);
  Alcotest.(check bool) "second ack" true (Handshake.get hs 1 >= 2);
  Atomic.set stop true;
  Domain.join d

(* Two reclaimers running rounds against each other concurrently: each
   must serve the other's pings from inside its own wait loop, or they
   deadlock (the coalescing property of Algorithms 1-2). *)
let handshake_concurrent_reclaimers () =
  let hub = Softsignal.create ~max_threads:2 in
  let hs = handshake hub in
  let rounds = 50 in
  let reclaimer tid () =
    let port = Softsignal.register hub ~tid in
    Softsignal.set_handler port (fun () -> Handshake.ack hs ~tid);
    (* Wait for the peer before the first round. *)
    while not (Softsignal.is_active hub (1 - tid)) do
      Domain.cpu_relax ()
    done;
    for _ = 1 to rounds do
      ignore (Handshake.round hs ~port)
    done;
    Softsignal.deregister port
  in
  let d0 = Domain.spawn (reclaimer 0) and d1 = Domain.spawn (reclaimer 1) in
  Domain.join d0;
  Domain.join d1;
  Alcotest.(check bool) "both completed all rounds" true
    (Handshake.get hs 0 >= 1 && Handshake.get hs 1 >= 1)

let handshake_peer_deregisters_mid_wait () =
  let hub = Softsignal.create ~max_threads:2 in
  let p0 = Softsignal.register hub ~tid:0 in
  let hs = handshake hub in
  let d =
    Domain.spawn (fun () ->
        let p1 = Softsignal.register hub ~tid:1 in
        (* Never polls; just leaves after a moment. *)
        Unix.sleepf 0.05;
        Softsignal.deregister p1)
  in
  while not (Softsignal.is_active hub 1) do
    Domain.cpu_relax ()
  done;
  (* Must not deadlock: the peer departs without acking. *)
  ignore (Handshake.round hs ~port:p0);
  Domain.join d;
  Alcotest.(check pass) "returned" () ()

(* Regression: a thread that registers *while* a reclaimer's ping round
   is in flight must not be waited on (it was never pinged). Before the
   fix, the round pinged the threads active at ping time but waited
   on the threads active at wait time, so a registration in that window
   hung the reclaimer forever. *)
let handshake_late_registration () =
  let hub = Softsignal.create ~max_threads:2 in
  let hs = handshake hub in
  let stop = Atomic.make false in
  (* Peer churns registration without ever acking. *)
  let d =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let p1 = Softsignal.register hub ~tid:1 in
          Domain.cpu_relax ();
          Softsignal.deregister p1
        done)
  in
  let p0 = Softsignal.register hub ~tid:0 in
  for _ = 1 to 200 do
    ignore (Handshake.round hs ~port:p0)
  done;
  Atomic.set stop true;
  Domain.join d;
  Alcotest.(check pass) "no hang across registration churn" () ()

(* Tentpole regression: a registered peer that never polls ("deaf") must
   not wedge the reclaimer. The bounded wait expires after the configured
   spin budget, marks the peer in the caller's timed-out row, and returns
   the count. *)
let handshake_deaf_peer_times_out () =
  let hub = Softsignal.create ~max_threads:2 in
  let p0 = Softsignal.register hub ~tid:0 in
  let hs = handshake ~spins:8 hub in
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let p1 = Softsignal.register hub ~tid:1 in
        (* Registered and pingable, but never polls: deaf. *)
        while not (Atomic.get stop) do
          Domain.cpu_relax ()
        done;
        Softsignal.deregister p1)
  in
  while not (Softsignal.is_active hub 1) do
    Domain.cpu_relax ()
  done;
  Alcotest.(check int) "one timeout" 1 (Handshake.round hs ~port:p0);
  Alcotest.(check bool) "deaf peer flagged" true (Handshake.timed_out hs ~port:p0 1);
  Alcotest.(check bool) "self not flagged" false (Handshake.timed_out hs ~port:p0 0);
  Alcotest.(check int) "tallied" 1 (Handshake.timeout_count hs);
  (* A later round against a now-responsive world must clear the flag. *)
  Atomic.set stop true;
  Domain.join d;
  Alcotest.(check int) "peer gone, no timeout" 0 (Handshake.round hs ~port:p0);
  Alcotest.(check bool) "flag cleared" false (Handshake.timed_out hs ~port:p0 1)

(* Fault injection end to end: with every ping dropped, a perfectly
   responsive peer still cannot ack, so the round must time out instead
   of spinning forever. *)
let handshake_dropped_pings_time_out () =
  let hub = Softsignal.create ~max_threads:2 in
  Softsignal.inject_faults hub ~seed:7 ~drop_ping:1.0 ~delay_poll:0.0;
  let p0 = Softsignal.register hub ~tid:0 in
  let hs = handshake ~spins:8 hub in
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let p1 = Softsignal.register hub ~tid:1 in
        Softsignal.set_handler p1 (fun () -> Handshake.ack hs ~tid:1);
        while not (Atomic.get stop) do
          Softsignal.poll p1;
          Domain.cpu_relax ()
        done;
        Softsignal.deregister p1)
  in
  while not (Softsignal.is_active hub 1) do
    Domain.cpu_relax ()
  done;
  let t = Handshake.round hs ~port:p0 in
  Atomic.set stop true;
  Domain.join d;
  Alcotest.(check int) "lost ping forces timeout" 1 t;
  Alcotest.(check bool) "peer flagged" true (Handshake.timed_out hs ~port:p0 1);
  Alcotest.(check bool) "drops counted" true (Softsignal.pings_dropped hub > 0);
  Alcotest.(check int) "no ack ever arrived" 0 (Handshake.get hs 1)

(* A fresh heap and a private engine over it, the statistics' owner. *)
let engine threads =
  let heap = Pop_sim.Heap.create ~max_threads:threads ~payload:(fun _ -> ()) () in
  (heap, Reclaimer.create (Smr_config.default ~max_threads:threads ()) ~heap)

(* Two reclaimers on different tids run rounds concurrently against one
   deaf registered peer. Each reads only its own timed-out row: after
   every round the deaf peer is flagged, the caller is not, and the
   flags match the count [round] returned (a row shared between callers
   would be rewritten under the other's reads). The handshake's tally,
   as reported by [Reclaimer.stats ~hs], is the sum of those counts. *)
let handshake_rows_per_caller () =
  let hub = Softsignal.create ~max_threads:3 in
  let hs = handshake ~spins:8 hub in
  let stop = Atomic.make false and ready = Atomic.make 0 in
  let deaf =
    Domain.spawn (fun () ->
        let p2 = Softsignal.register hub ~tid:2 in
        while not (Atomic.get stop) do
          Domain.cpu_relax ()
        done;
        Softsignal.deregister p2)
  in
  while not (Softsignal.is_active hub 2) do
    Domain.cpu_relax ()
  done;
  let reclaimer tid () =
    let port = Softsignal.register hub ~tid in
    Softsignal.set_handler port (fun () -> Handshake.ack hs ~tid);
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let sum = ref 0 and bad = ref 0 in
    for _ = 1 to 200 do
      let t = Handshake.round hs ~port in
      sum := !sum + t;
      let flagged = List.filter (Handshake.timed_out hs ~port) [ 0; 1; 2 ] in
      if List.length flagged <> t || List.mem tid flagged || not (List.mem 2 flagged) then
        incr bad
    done;
    Softsignal.deregister port;
    (!sum, !bad)
  in
  let d0 = Domain.spawn (reclaimer 0) and d1 = Domain.spawn (reclaimer 1) in
  let sum0, bad0 = Domain.join d0 and sum1, bad1 = Domain.join d1 in
  Atomic.set stop true;
  Domain.join deaf;
  Alcotest.(check int) "reclaimer 0 saw only its own row" 0 bad0;
  Alcotest.(check int) "reclaimer 1 saw only its own row" 0 bad1;
  let s = Reclaimer.stats ~hs (snd (engine 3)) ~hub ~epoch:0 in
  Alcotest.(check int) "tally is the sum of the returned counts" (sum0 + sum1)
    s.Smr_stats.handshake_timeouts

(* --- Smr_config / stats plumbing --- *)

let config_validation () =
  let ok = Smr_config.default () in
  Smr_config.validate ok;
  let bad_cases =
    [
      { ok with Smr_config.max_threads = 0 };
      { ok with Smr_config.max_hp = 0 };
      { ok with Smr_config.reclaim_freq = 0 };
      { ok with Smr_config.epoch_freq = 0 };
      { ok with Smr_config.pop_mult = 0 };
      { ok with Smr_config.ping_timeout_spins = 0 };
    ]
  in
  List.iteri
    (fun i bad ->
      match Smr_config.validate bad with
      | () -> Alcotest.failf "bad config %d accepted" i
      | exception Invalid_argument _ -> ())
    bad_cases

let engine_stats () =
  let hub = Softsignal.create ~max_threads:2 in
  let heap, eng = engine 2 in
  let local tid = Reclaimer.register eng ~tid ~scratch_slots:1 in
  let l0 = local 0 and l1 = local 1 in
  let retire l = Reclaimer.retire l (Pop_sim.Heap.alloc heap ~tid:0 ~birth_era:0) in
  retire l0;
  retire l1;
  retire l1;
  (* tid 1 frees both of its nodes in a POP pass; tid 0 keeps its one
     through a plain pass. *)
  ignore (Reclaimer.scan_plain ~kind:Reclaimer.Pop ~keep:(fun _ -> false) l1);
  ignore (Reclaimer.scan_plain ~kind:Reclaimer.Plain ~keep:(fun _ -> true) l0);
  Reclaimer.note_restart l0;
  let s = Reclaimer.stats eng ~hub ~epoch:5 in
  Alcotest.(check int) "retired" 3 s.Smr_stats.retired;
  Alcotest.(check int) "freed" 2 s.Smr_stats.freed;
  Alcotest.(check int) "unreclaimed" 1 s.Smr_stats.unreclaimed;
  Alcotest.(check int) "passes" 1 s.Smr_stats.reclaim_passes;
  Alcotest.(check int) "pop passes" 1 s.Smr_stats.pop_passes;
  Alcotest.(check int) "restarts" 1 s.Smr_stats.restarts;
  Alcotest.(check int) "epoch" 5 s.Smr_stats.epoch;
  Alcotest.(check int) "no handshake, no timeouts" 0 s.Smr_stats.handshake_timeouts;
  Alcotest.(check int) "violations" 0 s.Smr_stats.violations;
  Alcotest.(check int) "gauge" 1 (Reclaimer.unreclaimed eng)

let stats_pp_smoke () =
  let s = Smr_stats.zero in
  let str = Format.asprintf "%a" Smr_stats.pp s in
  Alcotest.(check bool) "prints something" true (String.length str > 10)

(* The report surface is derived from the one total [to_alist]
   function; check the invariants that derivation guarantees. *)
let stats_total_rows () =
  let rows = Smr_stats.to_alist Smr_stats.zero in
  let labels = List.map fst rows in
  List.iter
    (fun field ->
      Alcotest.(check bool)
        (Printf.sprintf "field %s reported" field)
        true (List.mem field labels))
    [ "retired"; "freed"; "handshake_timeouts"; "violations" ]

let suite =
  [
    case "id_set: basic membership" id_set_basic;
    case "id_set: fill skips none, reset empties" id_set_reset_and_fill;
    case "id_set: capacity enforced" id_set_capacity;
    case "id_set: mem requires a sealed set" id_set_unsealed_mem_rejected;
    case "id_set: min_elt requires a sealed set" id_set_min_requires_sealed;
    case "id_set: exists_in_range" id_set_exists_in_range;
    case "id_set: sort stress (sorted / reversed / duplicates)" id_set_sort_stress;
    QCheck_alcotest.to_alcotest id_set_model;
    QCheck_alcotest.to_alcotest id_set_range_model;
    case "reservations: local vs shared vs publish" reservations_local_shared;
    case "reservations: collect row-major" reservations_collect;
    case "reservations: rows are live views" reservations_rows_are_views;
    case "handshake: no active peers" handshake_skips_inactive;
    case "handshake: cross-domain ack rounds" handshake_cross_domain;
    case "handshake: concurrent reclaimers coalesce" handshake_concurrent_reclaimers;
    case "handshake: peer deregisters mid-wait" handshake_peer_deregisters_mid_wait;
    case "handshake: late registration is not waited on" handshake_late_registration;
    case "handshake: deaf peer times out" handshake_deaf_peer_times_out;
    case "handshake: dropped pings time out" handshake_dropped_pings_time_out;
    case "handshake: concurrent callers keep their own rows" handshake_rows_per_caller;
    case "smr_config: validation" config_validation;
    case "counters: snapshot arithmetic" engine_stats;
    case "smr_stats: pp" stats_pp_smoke;
    case "smr_stats: total row derivation" stats_total_rows;
  ]
