(** Non-vacuity of the tier-1 JSON contracts (tools/benchcheck): each
    contract accepts one well-formed document and rejects every single
    mutation of an asserted field, with a message naming that field. *)

open Tu
open Pop_harness
module Contracts = Pop_benchcheck.Contracts

(* Runner-shaped documents come from the real emitter, so the contracts
   are pinned to what [Runner.cells_json] actually prints. *)
let sane_cell label =
  ( label,
    {
      (Test_json.golden_result ()) with
      pre_mops = 0.003;
      violations_by_category = Pop_check.Smr_check.(to_alist zero);
    } )

let runner_doc labels = Runner.cells_json (List.map sane_cell labels)

let tournament_doc =
  runner_doc
    (List.concat_map
       (fun sc -> [ sc ^ "/ebr"; sc ^ "/hyaline-1s" ])
       [ "stall-poll"; "crash"; "kv-skew" ])

let seg_doc =
  Json.of_string
    {|{"pass_cost": [{"covered": 4096, "uncovered": 512, "freed_per_pass": 512, "fresh_ns_per_pass": 12807.2, "forced_ns_per_pass": 42859.4, "fresh_max_scan_blocks": 10, "forced_max_scan_blocks": 72, "segments_recycled": 7934}],
      "era_span": [{"covered": 512, "uncovered": 512, "freed_per_pass": 512, "fresh_ns_per_pass": 6958.6, "block_keeps": 800, "block_skips": 3200, "stale_stamps": 0}],
      "donor_churn": [{"donors": 2, "nodes": 4096, "ns_total": 1000000.0, "handoff_mops": 4.1, "splice_moves": 0, "stripe_contention": 0, "donated": 4096, "adopted": 4096}]}|}

let alloc_doc =
  let cell t grabs =
    Printf.sprintf
      {|{"threads": %d, "ops": 1024, "ns_per_op": 10.5, "block_grabs": %d, "block_returns": %d, "pool_blocks": 0, "uaf": 0, "double_free": 0}|}
      t grabs grabs
  in
  Json.of_string
    (Printf.sprintf {|{"balanced": [%s], "imbalanced": [%s, %s], "churn": [%s]}|} (cell 1 0)
       (cell 1 0) (cell 2 7) (cell 2 3))

type step = K of string | I of int

(* Rewrite the value at [path] with [f]. Every occurrence of a repeated
   key is visited; a step that does not fit the value's shape leaves it
   alone (a mutation that changes nothing then fails its own test). *)
let rec at path f (v : Json.t) : Json.t =
  match (path, v) with
  | [], v -> f v
  | K k :: rest, Obj kvs ->
      Obj (List.map (fun (k', x) -> if String.equal k k' then (k', at rest f x) else (k', x)) kvs)
  | I i :: rest, List vs -> List (List.mapi (fun j x -> if j = i then at rest f x else x) vs)
  | _, v -> v

let set path x = at path (fun _ -> x)
let drop k = function Json.Obj kvs -> Json.Obj (List.filter (fun (k', _) -> k' <> k) kvs) | v -> v

(* (contract, passing document, [(what, mutation, substring the
   rejection must contain)]): one row per assertion of the contract. *)
let table =
  [
    ( "json",
      runner_doc [ "hml/hp-pop/t3" ],
      [
        ("no cells", (fun _ -> Json.List []), "empty");
        ("mops null", set [ I 0; K "mops" ] Null, "mops");
        ("mops missing", at [ I 0 ] (drop "mops"), "mops");
        ("snapshot_reuses missing", at [ I 0; K "smr" ] (drop "snapshot_reuses"), "snapshot_reuses");
        ("inconsistent", set [ I 0; K "consistent" ] (Bool false), "consistent");
        ("sanitizer violations", set [ I 0; K "smr"; K "violations" ] (Int 1), "violations");
        ("uaf", set [ I 0; K "uaf" ] (Int 1), "uaf");
        ("double free", set [ I 0; K "double_free" ] (Int 1), "double_free");
      ] );
    ( "churn",
      runner_doc [ "hml/hp-pop/t4" ],
      [
        ("two cells", (fun d -> List (Json.to_list d @ Json.to_list d)), "2 cells");
        ("joined missing", at [ I 0 ] (drop "joined"), "joined");
        ( "no event fired",
          at [ I 0 ] (fun c -> set [ K "exited" ] (Int 0) (set [ K "crashed" ] (Int 0) c)),
          "exited + crashed" );
        ("inconsistent", set [ I 0; K "consistent" ] (Bool false), "consistent");
        ("sanitizer violations", set [ I 0; K "smr"; K "violations" ] (Int 1), "violations");
        ("stat missing", at [ I 0; K "smr" ] (drop "orphans_adopted"), "orphans_adopted");
        ("stale stamps", set [ I 0; K "smr"; K "stale_stamps" ] (Int 2), "stale_stamps");
        ( "category missing",
          at [ I 0; K "violations_by_category" ] (drop "stamp_misuse"),
          "stamp_misuse" );
        ( "unknown category",
          at [ I 0; K "violations_by_category" ] (function
            | Obj kvs -> Obj (kvs @ [ ("bogus_misuse", Int 0) ])
            | v -> v),
          "bogus_misuse" );
        ( "one category nonzero",
          set [ I 0; K "violations_by_category"; K "double_retire" ] (Int 1),
          "double_retire" );
      ] );
    ( "seg",
      seg_doc,
      [
        ("not an object", (fun _ -> Json.List []), "object");
        ("era_span empty", set [ K "era_span" ] (List []), "era_span");
        ( "nothing recycled",
          set [ K "pass_cost"; I 0; K "segments_recycled" ] (Int 0),
          "segments_recycled" );
        ( "freed_per_pass <> uncovered",
          set [ K "pass_cost"; I 0; K "freed_per_pass" ] (Int 511),
          "pass_cost[0].freed_per_pass" );
        ( "forced timing missing",
          set [ K "pass_cost"; I 0; K "forced_ns_per_pass" ] Null,
          "forced_ns_per_pass" );
        ( "era parity",
          set [ K "era_span"; I 0; K "freed_per_pass" ] (Int 0),
          "era_span[0].freed_per_pass" );
        ("no block keeps", set [ K "era_span"; I 0; K "block_keeps" ] (Int 0), "block_keeps");
        ("no block skips", set [ K "era_span"; I 0; K "block_skips" ] (Int 0), "block_skips");
        ("stale stamps", set [ K "era_span"; I 0; K "stale_stamps" ] (Int 1), "stale_stamps");
        ( "era timing missing",
          set [ K "era_span"; I 0; K "fresh_ns_per_pass" ] Null,
          "era_span[0].fresh_ns_per_pass" );
        ("splice moves", set [ K "donor_churn"; I 0; K "splice_moves" ] (Int 3), "splice_moves");
        ("lost adoption", set [ K "donor_churn"; I 0; K "adopted" ] (Int 4095), "adopted");
        ("nodes mismatch", set [ K "donor_churn"; I 0; K "nodes" ] (Int 1), "nodes");
        ("no throughput", set [ K "donor_churn"; I 0; K "handoff_mops" ] Null, "handoff_mops");
      ] );
    ( "kv",
      runner_doc [ "sl/hp-pop/t4" ],
      [
        ("no cells", (fun _ -> Json.List []), "empty");
        ("not kv", set [ I 0; K "kv" ] (Bool false), "kv");
        ("no samples", set [ I 0; K "lat_count" ] (Int 0), "lat_count");
        ("p50 negative", set [ I 0; K "p50" ] (Float (-1.)), "p50");
        ("max_pause null", set [ I 0; K "max_pause" ] Null, "max_pause");
        ("p99 > p999", set [ I 0; K "p99" ] (Float 2000.), "p99 = 2000 > p999");
        ("p999 > max", set [ I 0; K "max" ] (Float 999.), "p999 = 1000 > max");
        ("inconsistent", set [ I 0; K "consistent" ] (Bool false), "consistent");
        ("sanitizer violations", set [ I 0; K "smr"; K "violations" ] (Int 4), "violations");
      ] );
    ( "alloc",
      alloc_doc,
      [
        ("not an object", (fun _ -> Json.List []), "object");
        ("churn sweep empty", set [ K "churn" ] (List []), "churn");
        ("ns_per_op null", set [ K "imbalanced"; I 1; K "ns_per_op" ] Null, "ns_per_op");
        ("uaf", set [ K "churn"; I 0; K "uaf" ] (Int 1), "uaf");
        ("double free", set [ K "balanced"; I 0; K "double_free" ] (Int 1), "double_free");
        ( "balanced grabs",
          set [ K "balanced"; I 0; K "block_grabs" ] (Int 3),
          "balanced[0].block_grabs" );
        ( "balanced returns",
          set [ K "balanced"; I 0; K "block_returns" ] (Int 3),
          "balanced[0].block_returns" );
        ("no imbalanced t>=2", set [ K "imbalanced"; I 1; K "threads" ] (Int 1), "threads >= 2");
        ( "no circulation",
          set [ K "imbalanced"; I 1; K "block_returns" ] (Int 0),
          "imbalanced[1].block_returns" );
      ] );
    ( "tournament",
      tournament_doc,
      [
        ( "5 cells instead of 6",
          (fun d -> List (List.tl (Json.to_list d))),
          "5 cells, expected 6" );
        ("no descriptor", set [ I 2; K "scenario" ] Null, "scenario");
        ("unsanitized", set [ I 3; K "scenario"; K "sanitize" ] (Bool false), "sanitize");
        ("max_unreclaimed null", set [ I 1; K "max_unreclaimed" ] Null, "max_unreclaimed");
        ("recovery_ns negative", set [ I 1; K "recovery_ns" ] (Int (-1)), "recovery_ns");
        ("pre_mops null", set [ I 4; K "pre_mops" ] Null, "pre_mops");
        ("recovered missing", at [ I 5 ] (drop "recovered"), "recovered");
        ("sanitizer violations", set [ I 5; K "smr"; K "violations" ] (Int 1), "violations");
        ("uaf", set [ I 0; K "uaf" ] (Int 1), "uaf");
        ("double free", set [ I 0; K "double_free" ] (Int 1), "double_free");
        ("inconsistent", set [ I 0; K "consistent" ] (Bool false), "consistent");
        ("scenario drift", set [ I 2; K "label" ] (String "oversub/ebr"), "scenarios");
        ("stall shape missing", set [ I 1; K "scenario"; K "stall" ] Null, "stall");
      ] );
  ]

let contract name =
  match Contracts.find name with Some c -> c | None -> Alcotest.failf "no contract %s" name

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let every_contract_is_tested () =
  Alcotest.(check (list string))
    "contracts" (List.map (fun (n, _, _) -> n) table)
    (List.map (fun (c : Contracts.t) -> c.name) Contracts.all)

let accepts_then_rejects (name, doc, mutations) () =
  let c = contract name in
  (match Contracts.run c doc with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%s rejects its passing document: %s" name m);
  List.iter
    (fun (what, mutate, field) ->
      match Contracts.run c (mutate doc) with
      | Ok _ -> Alcotest.failf "%s accepted the mutation %S" name what
      | Error m ->
          if not (contains m field) then
            Alcotest.failf "%s / %s: message %S does not name %S" name what m field)
    mutations

(* The committed baselines of the shapes the smokes produce must
   satisfy their contracts too: the reader and the checks agree with
   files written by earlier builds. *)
let committed_baselines_satisfy () =
  List.iter
    (fun (name, file) ->
      match Contracts.run (contract name) (Json.of_file (Filename.concat ".." file)) with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%s: %s" file m)
    [
      ("seg", "BENCH_seg.json");
      ("alloc", "BENCH_alloc.json");
      ("kv", "BENCH_kv.json");
      ("json", "BENCH_1.json");
      ("json", "BENCH_tournament.json");
    ]

let suite =
  case "every contract has a mutation table" every_contract_is_tested
  :: case "committed baselines satisfy their contracts" committed_baselines_satisfy
  :: List.map
       (fun ((name, _, _) as row) ->
         case (name ^ ": accepts one document, rejects each mutation") (accepts_then_rejects row))
       table
