(** Unit and property tests for the runtime substrate. *)

open Pop_runtime
open Tu

(* --- Rng --- *)

let rng_deterministic () =
  let a = Rng.make 7 and b = Rng.make 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let rng_seed_sensitivity () =
  let a = Rng.make 1 and b = Rng.make 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next a = Rng.next b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let rng_int_bounds () =
  let r = Rng.make 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let rng_int_covers () =
  let r = Rng.make 4 in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(Rng.int r 8) <- true
  done;
  Array.iteri (fun i s -> if not s then Alcotest.failf "value %d never drawn" i) seen

let rng_float_bounds () =
  let r = Rng.make 5 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "float out of bounds: %f" v
  done

let rng_bool_balance () =
  let r = Rng.make 6 in
  let t = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bool r then incr t
  done;
  Alcotest.(check bool) "roughly balanced" true (!t > 4500 && !t < 5500)

let rng_split_independent () =
  let a = Rng.make 9 in
  let b = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next a = Rng.next b then incr same
  done;
  Alcotest.(check bool) "split independent" true (!same < 4)

(* Regression for the modulo-bias fix. With bound 3*2^60, [v mod bound]
   maps the 62-bit masked space onto [0, 2^60) twice and the rest once:
   the bottom third of the range gets probability 1/2 instead of 1/3.
   Mask-and-reject gives exactly 1/3. The old code fails this test with
   an observed fraction around 0.50 — far outside the window. *)
let rng_int_unbiased_large_bound () =
  let bound = 3 * (1 lsl 60) in
  let cut = 1 lsl 60 in
  let r = Rng.make 11 in
  let n = 30_000 in
  let low = ref 0 in
  for _ = 1 to n do
    if Rng.int r bound < cut then incr low
  done;
  let frac = float_of_int !low /. float_of_int n in
  if frac < 0.30 || frac > 0.37 then
    Alcotest.failf "bottom-third fraction %.4f, expected ~1/3 (modulo bias?)" frac

(* Chi-square uniformity over a non-power-of-two bound. 1000 cells x
   100 expected each; the 0.001 critical value for 999 degrees of
   freedom is ~1144, so a sound generator fails roughly once per
   thousand seeds — and the seed is fixed. *)
let rng_int_chi_square () =
  let bound = 1000 in
  let per_cell = 100 in
  let n = bound * per_cell in
  let r = Rng.make 13 in
  let counts = Array.make bound 0 in
  for _ = 1 to n do
    let v = Rng.int r bound in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int per_cell in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 counts
  in
  if chi2 > 1144.0 then Alcotest.failf "chi-square %.1f > 1144 (df=999, p=0.001)" chi2

(* Regression for the bound-inclusive unit_hash. This key is the
   preimage of hash = max_int under the SplitMix64 finalizer (computed
   by inverting the xorshifts and odd multiplies), the worst case of
   the old [v / max_int] mapping: it returned exactly 1.0 there, and an
   inverse-CDF sampler fed a 1.0 indexes one past its table. *)
let rng_unit_hash_half_open () =
  let worst = -1105990503320224461 in
  Alcotest.(check int) "preimage reaches max_int" max_int (Rng.hash worst);
  let u = Rng.unit_hash worst in
  if u >= 1.0 then Alcotest.failf "unit_hash worst case = %.17g, must be < 1" u;
  for k = -1000 to 1000 do
    let u = Rng.unit_hash k in
    if u < 0.0 || u >= 1.0 then Alcotest.failf "unit_hash %d = %.17g out of [0,1)" k u
  done

(* --- Clock --- *)

(* Regression for the unclamped [elapsed]: a t0 in the future (e.g. a
   scheduled arrival not yet due) must read as 0, not a negative
   duration the latency histogram would have to clamp itself. *)
let clock_elapsed_clamped () =
  let future = Clock.now () +. 1e9 in
  Alcotest.(check (float 0.0)) "future t0 clamps to 0" 0.0 (Clock.elapsed future)

(* --- Histogram --- *)

let hist_quantiles_uniform () =
  let h = Histogram.create () in
  for v = 1 to 1000 do
    Histogram.record h v
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  Alcotest.(check int) "max exact" 1000 (Histogram.max_value h);
  Alcotest.(check int) "min exact" 1 (Histogram.min_value h);
  Alcotest.(check (float 0.01)) "mean exact" 500.5 (Histogram.mean h);
  (* Quantiles report a bucket upper bound: >= the true value and
     within one 1/16 sub-bucket of it. *)
  let check_q q truth =
    let got = Histogram.quantile h q in
    if got < truth || float_of_int got > float_of_int truth *. 1.0675 then
      Alcotest.failf "p%g = %d, want within [%d, %.0f]" (q *. 100.0) got truth
        (float_of_int truth *. 1.0675)
  in
  check_q 0.50 500;
  check_q 0.90 900;
  check_q 0.99 990;
  Alcotest.(check int) "p100 is the exact max" 1000 (Histogram.quantile h 1.0)

let hist_empty_and_negative () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty quantile" 0 (Histogram.quantile h 0.99);
  Alcotest.(check int) "empty max" 0 (Histogram.max_value h);
  Histogram.record h (-5);
  Alcotest.(check int) "negative clamps to 0" 0 (Histogram.quantile h 1.0);
  Alcotest.(check int) "counted" 1 (Histogram.count h)

let hist_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  for v = 1 to 500 do
    Histogram.record a v
  done;
  for v = 501 to 1000 do
    Histogram.record b v
  done;
  let m = Histogram.create () in
  Histogram.merge_into m ~src:a;
  Histogram.merge_into m ~src:b;
  let whole = Histogram.create () in
  for v = 1 to 1000 do
    Histogram.record whole v
  done;
  Alcotest.(check int) "merged count" (Histogram.count whole) (Histogram.count m);
  Alcotest.(check int) "merged sum" (Histogram.sum whole) (Histogram.sum m);
  Alcotest.(check int) "merged max" (Histogram.max_value whole) (Histogram.max_value m);
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "merged p%g" (q *. 100.0))
        (Histogram.quantile whole q) (Histogram.quantile m q))
    [ 0.5; 0.9; 0.99; 0.999; 1.0 ]

let hist_wide_range () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 0; 1; 15; 16; 17; 1023; 1_000_000; 123_456_789_000 ];
  Alcotest.(check int) "count" 8 (Histogram.count h);
  Alcotest.(check int) "max exact" 123_456_789_000 (Histogram.max_value h);
  (* Every recorded value's bucket upper bound is >= the value and
     within the 1/16 relative-error envelope. *)
  List.iter
    (fun v ->
      let g = Histogram.create () in
      Histogram.record g v;
      let q = Histogram.quantile g 0.5 in
      if q <> v then Alcotest.failf "singleton quantile %d for %d (max should win)" q v)
    [ 0; 1; 15; 16; 17; 1023; 1_000_000; 123_456_789_000 ]

(* --- Backoff --- *)

let backoff_escalates () =
  let b = Backoff.make () in
  Alcotest.(check int) "fresh" 0 (Backoff.spins b);
  for _ = 1 to 5 do
    Backoff.once b
  done;
  Alcotest.(check int) "counted" 5 (Backoff.spins b);
  Backoff.reset b;
  Alcotest.(check int) "reset" 0 (Backoff.spins b)

let backoff_sleep_capped () =
  let b = Backoff.make () in
  (* Drive deep into the sleep regime; must return promptly. *)
  let t0 = Clock.now () in
  for _ = 1 to 25 do
    Backoff.once b
  done;
  Alcotest.(check bool) "bounded total sleep" true (Clock.elapsed t0 < 1.0)

(* --- Spinlock --- *)

let spinlock_basic () =
  let l = Spinlock.create () in
  Alcotest.(check bool) "unlocked" false (Spinlock.is_locked l);
  Spinlock.lock l;
  Alcotest.(check bool) "locked" true (Spinlock.is_locked l);
  Alcotest.(check bool) "try fails" false (Spinlock.try_lock l);
  Spinlock.unlock l;
  Alcotest.(check bool) "try succeeds" true (Spinlock.try_lock l);
  Spinlock.unlock l

let spinlock_mutual_exclusion () =
  let l = Spinlock.create () in
  let counter = ref 0 in
  let iters = 20_000 in
  let work () =
    for _ = 1 to iters do
      Spinlock.lock l;
      counter := !counter + 1;
      Spinlock.unlock l
    done
  in
  let d1 = Domain.spawn work and d2 = Domain.spawn work in
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "no lost updates" (2 * iters) !counter

(* --- Striped --- *)

let striped_basic () =
  let s = Striped.create 4 in
  Alcotest.(check int) "length" 4 (Striped.length s);
  Striped.set s 0 5;
  Striped.incr s 1;
  Striped.add s 2 10;
  Alcotest.(check int) "get" 5 (Striped.get s 0);
  Alcotest.(check int) "sum" 16 (Striped.sum s);
  Alcotest.(check bool) "cell is live view" true (Atomic.get (Striped.cell s 2) = 10)

let striped_parallel_incr () =
  let s = Striped.create 2 in
  let iters = 50_000 in
  let work i () =
    for _ = 1 to iters do
      Striped.incr s i
    done
  in
  let d1 = Domain.spawn (work 0) and d2 = Domain.spawn (work 1) in
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "sum" (2 * iters) (Striped.sum s)

(* --- Clock --- *)

let clock_monotonic_enough () =
  let t0 = Clock.now () in
  Unix.sleepf 0.01;
  let e = Clock.elapsed t0 in
  Alcotest.(check bool) "elapsed in range" true (e >= 0.005 && e < 1.0)

let suite =
  [
    case "rng: deterministic" rng_deterministic;
    case "rng: seed sensitivity" rng_seed_sensitivity;
    case "rng: int bounds" rng_int_bounds;
    case "rng: int covers range" rng_int_covers;
    case "rng: float bounds" rng_float_bounds;
    case "rng: bool balance" rng_bool_balance;
    case "rng: split independent" rng_split_independent;
    case "rng: int unbiased at 3*2^60" rng_int_unbiased_large_bound;
    case "rng: int chi-square uniform" rng_int_chi_square;
    case "rng: unit_hash half-open" rng_unit_hash_half_open;
    case "clock: elapsed clamped at 0" clock_elapsed_clamped;
    case "histogram: uniform quantiles" hist_quantiles_uniform;
    case "histogram: empty and negative" hist_empty_and_negative;
    case "histogram: merge" hist_merge;
    case "histogram: wide range" hist_wide_range;
    case "backoff: escalates and resets" backoff_escalates;
    case "backoff: sleep capped" backoff_sleep_capped;
    case "spinlock: basic" spinlock_basic;
    case "spinlock: mutual exclusion" spinlock_mutual_exclusion;
    case "striped: basic" striped_basic;
    case "striped: parallel increments" striped_parallel_incr;
    case "clock: elapsed" clock_monotonic_enough;
  ]
