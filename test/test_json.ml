(** Tests for the JSON layer: the golden pin on {!Pop_harness.Runner.to_json},
    the printer's escaping and number rules, the reader's round trip, and
    a parse of every committed repo-root [BENCH_*.json]. *)

open Tu
open Pop_harness

(* A hand-built result exercising every branch of the cell emitter: a
   stall and a churn spec in the scenario descriptor, a NaN throughput
   field (must print as null), a label that needs escaping, latency
   samples, sanitizer categories and distinct Smr_stats counters. *)
let golden_result () =
  let latency = Pop_runtime.Histogram.create () in
  List.iter (Pop_runtime.Histogram.record latency) [ 1_000; 2_000; 4_000; 1_000_000 ];
  let r_cfg =
    {
      Runner.default_cfg with
      ds = Dispatch.HML;
      smr = Dispatch.HPPOP;
      threads = 3;
      duration = 0.25;
      reclaim_freq = 128;
      reclaim_scale = 2;
      stall = Some { stall_tid = 1; stall_after = 0.05; stall_for = 0.1; stall_polling = false };
      churn =
        Some { exits = 1; crashes = 2; joins = 1; churn_start = 0.02; churn_period = 0.03 };
      ping_timeout_spins = 20;
      spin_yield_after = 4096;
      seed = 7;
      sanitize = true;
      kv = true;
      zipf_theta = 0.99;
      arrival_rate = 20000.0;
    }
  in
  let smr =
    {
      Pop_core.Smr_stats.zero with
      retired = 900;
      freed = 800;
      reclaim_passes = 3;
      pop_passes = 5;
      snapshot_reuses = 2;
      pings = 11;
      max_pause_ns = 12_345;
      max_unreclaimed = 100;
      unreclaimed = 100;
    }
  in
  {
    Runner.r_cfg;
    total_ops = 1000;
    read_ops = 600;
    update_ops = 400;
    mops = 0.004;
    read_mops = 0.0024;
    pre_mops = Float.nan;
    recovery_ns = 5_000_000;
    recovered = false;
    max_live = 2048;
    max_unreclaimed = 100;
    final_unreclaimed = 0;
    final_live = 1024;
    uaf = 0;
    double_free = 0;
    final_size = 1024;
    expected_size = 1024;
    invariants_ok = true;
    invariant_error = "";
    exited = 1;
    crashed = 2;
    joined = 1;
    smr;
    violations_by_category = [ ("read_outside_op", 0); ("double_retire", 3) ];
    latency;
  }

let runner_to_json_golden () =
  let cores = Domain.recommended_domain_count () in
  let expected =
    Printf.sprintf
      {|{"label": "a \"quoted\"\nlabel", "scenario": {"seed": 7, "threads": 3, "cores": %d, "oversubscribed": %b, "stall": {"tid": 1, "after": 0.050000, "for": 0.100000, "polling": false}, "churn": {"exits": 1, "crashes": 2, "joins": 1, "start": 0.020000, "period": 0.030000}, "kv": true, "zipf_theta": 0.990000, "arrival_rate": 20000.000000, "duration": 0.250000, "ping_timeout_spins": 20, "spin_yield_after": 4096, "sanitize": true}, "ds": "hml", "smr": "hp-pop", "threads": 3, "duration": 0.250000, "reclaim_freq": 128, "reclaim_scale": 2, "mops": 0.004000, "read_mops": 0.002400, "pre_mops": null, "recovery_ns": 5000000, "recovered": false, "kv": true, "zipf_theta": 0.990000, "rate": 20000.000000, "lat_count": 4, "p50": 2.047000, "p99": 1000.000000, "p999": 1000.000000, "max": 1000.000000, "max_pause": 12.345000, "total_ops": 1000, "read_ops": 600, "update_ops": 400, "max_live": 2048, "max_unreclaimed": 100, "final_unreclaimed": 0, "uaf": 0, "double_free": 0, "exited": 1, "crashed": 2, "joined": 1, "consistent": true, "frees_per_pass": 100.000000, "snapshot_reuse_ratio": 0.200000, "violations_by_category": {"read_outside_op": 0, "double_retire": 3}, "smr": {"retired": 900, "freed": 800, "unreclaimed": 100, "max_unreclaimed": 100, "reclaim_passes": 3, "pop_passes": 5, "scan_skips": 0, "snapshot_reuses": 2, "retire_segments": 0, "segments_recycled": 0, "segment_occupancy": 0, "max_scan_blocks": 0, "pings": 11, "publishes": 0, "restarts": 0, "handshake_timeouts": 0, "suspects": 0, "quarantine_rounds": 0, "block_skips": 0, "block_keeps": 0, "stale_stamps": 0, "orphans_donated": 0, "orphans_adopted": 0, "orphan_stripe_contention": 0, "block_grabs": 0, "block_returns": 0, "pool_blocks": 0, "max_pause_ns": 12345, "epoch": 0, "violations": 0}}|}
      cores (3 > cores)
  in
  Alcotest.(check string) "Runner.to_json golden" expected
    (Runner.to_json ~label:"a \"quoted\"\nlabel" (golden_result ()))

let print = Json.to_string
let check_prints msg expected v = Alcotest.(check string) msg expected (print v)

let escapes_strings () =
  check_prints "quote, backslash, newline, tab, control" {|"a\"b\\c\nd\te\u0001f\u001f"|}
    (String "a\"b\\c\nd\te\001f\031");
  check_prints "keys are escaped too" {|{"k\"": 1}|} (Obj [ ("k\"", Int 1) ]);
  check_prints "other bytes pass through" "\"hml/ebr/t2 \xc3\xa9 ~\"" (String "hml/ebr/t2 \xc3\xa9 ~")

let non_finite_is_null () =
  List.iter
    (fun f -> check_prints (string_of_float f) "null" (Float f))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  check_prints "inside a cell" {|{"mops": null, "ok": 1.500000}|}
    (Obj [ ("mops", Float (0. /. 0.)); ("ok", Float 1.5) ])

let numbers () =
  check_prints "int" "42" (Int 42);
  check_prints "negative int" "-7" (Int (-7));
  check_prints "integral float keeps its point" "2.000000" (Float 2.0);
  check_prints "literals" "[null, true, false]" (List [ Null; Bool true; Bool false ])

let layout () =
  check_prints "array of flat cells: one per line" "[\n  {\"a\": 1},\n  {\"a\": 2}\n]"
    (List [ Obj [ ("a", Int 1) ]; Obj [ ("a", Int 2) ] ]);
  check_prints "keyed arrays of cells nest" "{\n  \"x\": [\n    {\"a\": 1}\n  ],\n  \"y\": []\n}"
    (Obj [ ("x", List [ Obj [ ("a", Int 1) ] ]); ("y", List []) ]);
  check_prints "mixed children stay on one line" {|{"s": {"t": 1}, "n": 2}|}
    (Obj [ ("s", Obj [ ("t", Int 1) ]); ("n", Int 2) ]);
  check_prints "empty containers" "[1, {}, []]" (List [ Int 1; Obj []; List [] ])

let nested =
  Json.Obj
    [
      ("label", String "stall-poll/ebr \"q\"\n\t\\");
      ("cells", List [ Obj [ ("mops", Float 0.5); ("uaf", Int 0) ]; Obj []; List [] ]);
      ("scenario", Obj [ ("stall", Null); ("sanitize", Bool true); ("theta", Float (-0.25)) ]);
      ("counts", List [ Int 0; Int (-3); Int max_int ]);
    ]

let round_trip () =
  Alcotest.(check bool) "of_string (to_string v) = v" true (Json.of_string (print nested) = nested);
  Alcotest.(check bool) "foreign whitespace and escapes" true
    (Json.of_string " {\"a\" :[1 ,2.5e1,\"\\u0041\\/\"] , \"b\":{}}\n"
    = Obj [ ("a", List [ Int 1; Float 25.; String "A/" ]); ("b", Obj []) ]);
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception Json.Parse_error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "nul"; "\"open"; "1 2"; "[1] x" ]

let accessors () =
  let cell = Json.of_string {|{"smr": "hp-pop", "n": 3, "smr": {"violations": 0}}|} in
  Alcotest.(check bool) "a repeated key reads as its last value" true
    (Json.member "smr" cell = Some (Obj [ ("violations", Int 0) ]));
  Alcotest.(check bool) "absent key" true (Json.member "nope" cell = None);
  Alcotest.(check (float 0.)) "ints widen to numbers" 3. (Json.to_number (Int 3));
  List.iter
    (fun (what, f) ->
      match f () with
      | _ -> Alcotest.failf "%s accepted" what
      | exception Json.Type_error _ -> ())
    [
      ("null as a number", fun () -> ignore (Json.to_number Null));
      ("nan as a number", fun () -> ignore (Json.to_number (Float Float.nan)));
      ("a float as an int", fun () -> ignore (Json.to_int (Float 1.)));
      ("member of an array", fun () -> ignore (Json.member "k" (List [])));
    ]

(* The committed baselines, declared as deps in test/dune, come in four
   shapes (bechamel rows, keyed cell arrays, Runner cells with and
   without a scenario descriptor); the reader must take every one. *)
let committed_baselines_parse () =
  let files = committed_baselines () in
  List.iter
    (fun f ->
      if not (List.mem f files) then Alcotest.failf "%s not visible to the test (dune deps?)" f)
    [ "BENCH_micro.json"; "BENCH_seg.json"; "BENCH_1.json"; "BENCH_tournament.json" ];
  List.iter
    (fun f ->
      match Json.of_file (Filename.concat ".." f) with
      | List (_ :: _) | Obj (_ :: _) -> ()
      | _ -> Alcotest.failf "%s: empty document" f
      | exception Json.Parse_error m -> Alcotest.failf "%s: %s" f m)
    files

let suite =
  [
    case "runner: to_json golden string" runner_to_json_golden;
    case "printer: string escaping" escapes_strings;
    case "printer: non-finite floats print as null" non_finite_is_null;
    case "printer: ints without a decimal point" numbers;
    case "printer: layout" layout;
    case "reader: round trip and rejects" round_trip;
    case "accessors" accessors;
    case "reader: every committed BENCH_*.json parses" committed_baselines_parse;
  ]
