(** Sequential correctness of all five data structures: model-based
    property tests against a reference set, plus targeted edge cases.
    Each runs under EpochPOP (exercising the full read/retire machinery)
    and the property test additionally under HP and NBR, the two most
    structurally demanding reclamation disciplines. *)

open Tu
open Pop_harness

let set_of ds smr = Dispatch.set_module ds smr

(* Deterministic scripted scenarios. *)


let basic_semantics ds () =
  let (module S) = set_of ds Dispatch.EPOCHPOP in
  let module G = Set_rig (S) in
  let s, ctx = G.fresh () in
  Alcotest.(check int) "empty" 0 (S.size_seq s);
  Alcotest.(check bool) "insert new" true (S.insert ctx 5);
  Alcotest.(check bool) "insert dup" false (S.insert ctx 5);
  Alcotest.(check bool) "contains" true (S.contains ctx 5);
  Alcotest.(check bool) "not contains" false (S.contains ctx 6);
  Alcotest.(check bool) "delete present" true (S.delete ctx 5);
  Alcotest.(check bool) "delete absent" false (S.delete ctx 5);
  Alcotest.(check bool) "gone" false (S.contains ctx 5);
  Alcotest.(check int) "empty again" 0 (S.size_seq s);
  S.check_invariants s

let boundary_keys ds () =
  let (module S) = set_of ds Dispatch.EPOCHPOP in
  let module G = Set_rig (S) in
  let s, ctx = G.fresh () in
  Alcotest.(check bool) "key 0" true (S.insert ctx 0);
  Alcotest.(check bool) "key 63" true (S.insert ctx 63);
  Alcotest.(check bool) "contains 0" true (S.contains ctx 0);
  Alcotest.(check bool) "contains 63" true (S.contains ctx 63);
  Alcotest.(check (list int)) "both keys present" [ 0; 63 ] (S.keys_seq s);
  Alcotest.(check bool) "delete 0" true (S.delete ctx 0);
  Alcotest.(check bool) "delete 63" true (S.delete ctx 63);
  S.check_invariants s

let fill_and_drain ds () =
  let (module S) = set_of ds Dispatch.EPOCHPOP in
  let module G = Set_rig (S) in
  let s, ctx = G.fresh () in
  for k = 0 to 63 do
    Alcotest.(check bool) (Printf.sprintf "insert %d" k) true (S.insert ctx k)
  done;
  Alcotest.(check int) "full" 64 (S.size_seq s);
  S.check_invariants s;
  Alcotest.(check (list int)) "all keys present" (List.init 64 Fun.id) (S.keys_seq s);
  (* Drain in an order that stresses restructuring: odd keys descending,
     then even keys ascending. *)
  for i = 0 to 63 do
    let k = if i < 32 then 63 - (2 * i) else 2 * (i - 32) in
    Alcotest.(check bool) (Printf.sprintf "delete %d" k) true (S.delete ctx k)
  done;
  Alcotest.(check int) "drained" 0 (S.size_seq s);
  S.check_invariants s;
  (* Structure remains usable after total drain. *)
  Alcotest.(check bool) "reusable" true (S.insert ctx 7);
  S.check_invariants s

let interleaved_churn ds () =
  let (module S) = set_of ds Dispatch.EPOCHPOP in
  let module G = Set_rig (S) in
  let s, ctx = G.fresh () in
  (* Heavy churn on a small key space forces node recycling through the
     retire lists and the heap freelists. *)
  let rng = Pop_runtime.Rng.make 123 in
  let model = Array.make 16 false in
  for _ = 1 to 5_000 do
    let k = Pop_runtime.Rng.int rng 16 in
    if Pop_runtime.Rng.bool rng then begin
      let expect = not model.(k) in
      if S.insert ctx k <> expect then Alcotest.failf "insert %d diverged" k;
      model.(k) <- true
    end
    else begin
      let expect = model.(k) in
      if S.delete ctx k <> expect then Alcotest.failf "delete %d diverged" k;
      model.(k) <- false
    end
  done;
  S.check_invariants s;
  let expected = List.filter (fun k -> model.(k)) (List.init 16 Fun.id) in
  Alcotest.(check (list int)) "final content" expected (S.keys_seq s);
  S.flush ctx;
  Alcotest.(check int) "no UAF" 0 (S.heap_uaf s);
  Alcotest.(check int) "no double free" 0 (S.heap_double_free s)

let reclamation_happens ds () =
  let (module S) = set_of ds Dispatch.EPOCHPOP in
  let module G = Set_rig (S) in
  let s, ctx = G.fresh () in
  for round = 1 to 50 do
    for k = 0 to 15 do
      ignore (S.insert ctx k)
    done;
    for k = 0 to 15 do
      ignore (S.delete ctx k)
    done;
    ignore round
  done;
  S.flush ctx;
  (* 800 deletions happened; with reclaim_freq 8 nearly all must have
     been recycled: live nodes stay within a small bound. *)
  let stats = S.smr_stats s in
  Alcotest.(check bool) "retired many" true (stats.Pop_core.Smr_stats.retired >= 400);
  Alcotest.(check bool) "freed nearly all" true
    (stats.Pop_core.Smr_stats.freed >= stats.Pop_core.Smr_stats.retired - 16);
  Alcotest.(check bool) "heap bounded" true (S.heap_live s < 200)

(* Model-based property test. *)
let model_prop ?(count = 60) ds smr =
  let name =
    Printf.sprintf "%s/%s: random ops match model" (Dispatch.ds_name ds) (Dispatch.smr_name smr)
  in
  QCheck2.Test.make ~name ~count ops_gen (fun ops ->
      check_against_model (set_of ds smr) ops;
      true)

(* Minor words per no-write operation: one domain, nr, 4,096 keys half
   full; each op runs over every key once to warm up, then once
   measured. The ceilings are the counts this sequence read before the
   structures moved onto the Ds_common shell (identical under hp-pop
   and nbr): an extra closure or boxed value on an operation path
   raises one. *)
let alloc_ceiling ds () =
  let contains, insert_present, delete_absent =
    match ds with
    | Dispatch.HML -> (28., 28., 28.)
    | Dispatch.HMHT -> (29., 29., 29.)
    | Dispatch.LL -> (33., 51., 48.)
    | Dispatch.DGT -> (41., 55., 55.)
    | Dispatch.SL -> (141., 163., 147.)
    | Dispatch.ABT -> (67.57421875, 95.57421875, 88.57421875)
  in
  let (module S) = set_of ds Dispatch.NR in
  let key_range = 4096 in
  let dcfg = Pop_ds.Ds_config.default ~key_range in
  let scfg =
    {
      (Pop_core.Smr_config.default ~max_threads:1 ()) with
      max_hp = (2 * dcfg.Pop_ds.Ds_config.skip_levels) + 2;
    }
  in
  let s = S.create scfg dcfg ~hub:(Pop_runtime.Softsignal.create ~max_threads:1) in
  let ctx = S.register s ~tid:0 in
  List.iter (fun k -> ignore (S.insert ctx k)) (Workload.prefill_keys ~key_range);
  let check what ceiling op =
    let batch () =
      for k = 0 to key_range - 1 do
        ignore (op k)
      done
    in
    batch ();
    let w0 = Gc.minor_words () in
    batch ();
    let words = (Gc.minor_words () -. w0) /. float_of_int key_range in
    if words > ceiling then
      Alcotest.failf "%s: %s allocates %.2f words per op, ceiling %.2f" S.name what words ceiling
  in
  check "contains" contains (fun k -> S.contains ctx k);
  check "insert of a present key" insert_present (fun k -> S.insert ctx (2 * (k / 2)));
  check "delete of an absent key" delete_absent (fun k -> S.delete ctx ((2 * (k / 2)) + 1));
  Alcotest.(check int) "no write happened" (key_range / 2) (S.size_seq s)

(* Minor words per insert+delete pair of one absent key: one domain,
   hmht over 65,536 keys half full, the update-heavy shape, at the
   default retire threshold. Cadence frees a node only two ticks after
   its retire, so one domain's retire list sits above the threshold. A
   pass run on every retire there (a clock read and the pass closures
   each time) shows up as words that hp-pop's pair does not allocate,
   and so does a backlog that outgrows two ticks of retires: its nodes
   are fresh heap nodes, not recycled ones. *)
let pair_words smr =
  let (module S) = set_of Dispatch.HMHT smr in
  let key_range = 65_536 in
  let s =
    S.create
      (Pop_core.Smr_config.default ~max_threads:1 ())
      (Pop_ds.Ds_config.default ~key_range)
      ~hub:(Pop_runtime.Softsignal.create ~max_threads:1)
  in
  let ctx = S.register s ~tid:0 in
  List.iter (fun k -> ignore (S.insert ctx k)) (Workload.prefill_keys ~key_range);
  let pairs = 100_000 in
  let batch () =
    for i = 0 to pairs - 1 do
      let k = (2 * (i mod (key_range / 2))) + 1 in
      ignore (S.insert ctx k);
      ignore (S.delete ctx k)
    done
  in
  batch ();
  let w0 = Gc.minor_words () in
  batch ();
  (Gc.minor_words () -. w0) /. float_of_int pairs

let cadence_pair_words () =
  let hp_pop = pair_words Dispatch.HPPOP and cadence = pair_words Dispatch.CADENCE in
  if cadence > hp_pop +. 2. then
    Alcotest.failf "cadence allocates %.1f words per insert+delete pair, hp-pop %.1f" cadence
      hp_pop

let per_ds ds =
  let n = Dispatch.ds_name ds in
  [
    case (n ^ ": basic semantics") (basic_semantics ds);
    case (n ^ ": boundary keys") (boundary_keys ds);
    case (n ^ ": fill and drain") (fill_and_drain ds);
    case (n ^ ": interleaved churn vs model") (interleaved_churn ds);
    case (n ^ ": reclamation recycles memory") (reclamation_happens ds);
    case (n ^ ": no-write ops stay within their allocation ceilings") (alloc_ceiling ds);
    (* Deep runs for the three most structurally demanding disciplines,
       lighter runs for the rest of the algorithm zoo. *)
    QCheck_alcotest.to_alcotest (model_prop ds Dispatch.EPOCHPOP);
    QCheck_alcotest.to_alcotest (model_prop ds Dispatch.HP);
    QCheck_alcotest.to_alcotest (model_prop ds Dispatch.NBR);
    QCheck_alcotest.to_alcotest (model_prop ~count:20 ds Dispatch.HPPOP);
    QCheck_alcotest.to_alcotest (model_prop ~count:20 ds Dispatch.HEPOP);
    QCheck_alcotest.to_alcotest (model_prop ~count:20 ds Dispatch.HE);
    QCheck_alcotest.to_alcotest (model_prop ~count:20 ds Dispatch.IBR);
    QCheck_alcotest.to_alcotest (model_prop ~count:20 ds Dispatch.HYALINE1);
    QCheck_alcotest.to_alcotest (model_prop ~count:20 ds Dispatch.HYALINE1S);
    QCheck_alcotest.to_alcotest (model_prop ~count:20 ds Dispatch.CADENCE);
  ]

(* Hm_core's structural check on hand-built chains from a bare head
   cell: a node linked while its [next] still holds the fresh-payload
   [unlinked] node must fail [check_seq], and the same chain finished
   with a link to the tail must pass. A node marked by hand (its cell
   swapped for a marker that holds its successor) is still linked: it
   passes [check_seq] and is skipped by [iter_seq]. *)
let hm_core_unlinked_fails_check () =
  let module Core = Pop_ds.Hm_core.Make (Pop_core.Smr_typed.Of (Pop_baselines.Nr)) in
  let module Heap = Pop_sim.Heap in
  let heap = Heap.create ~max_threads:1 ~payload:Core.payload () in
  let tail = Core.make_tail heap in
  let head = Core.head_cell ~tail in
  Core.check_seq heap head;
  let n = Heap.alloc heap ~tid:0 ~birth_era:0 in
  n.Heap.key <- 5;
  Atomic.set head n;
  Alcotest.check_raises "chain reaching Unlinked rejected"
    (Failure "hm_core: chain reaches an unlinked cell") (fun () -> Core.check_seq heap head);
  Atomic.set (Core.next_cell n) tail;
  Core.check_seq heap head;
  Alcotest.(check int) "one key" 1 (Pop_ds.Ds_common.size_seq Core.iter_seq head);
  let m = Heap.alloc heap ~tid:0 ~birth_era:0 in
  m.Heap.key <- 7;
  Atomic.set (Core.next_cell m) tail;
  Atomic.set (Core.next_cell n) m;
  Atomic.set (Core.next_cell n) (Core.marker m);
  Core.check_seq heap head;
  Alcotest.(check int) "marked node not counted" 1 (Pop_ds.Ds_common.size_seq Core.iter_seq head);
  let keys = ref [] in
  Core.iter_seq head (fun k -> keys := k :: !keys);
  Alcotest.(check (list int)) "marked node skipped" [ 7 ] !keys

(* A cycle, which only an unsafe scheme's ABA can build: every walk
   must still end, and [check_seq] must report the break. *)
let hm_core_cycle_terminates () =
  let module T = Pop_core.Smr_typed.Of (Pop_baselines.Nr) in
  let module Core = Pop_ds.Hm_core.Make (T) in
  let module Heap = Pop_sim.Heap in
  let heap = Heap.create ~max_threads:1 ~payload:Core.payload () in
  let tail = Core.make_tail heap in
  let anchor = Core.make_head heap ~tail in
  let node key =
    let n = Heap.alloc heap ~tid:0 ~birth_era:0 in
    n.Heap.key <- key;
    n
  in
  let a = node 5 and b = node 7 in
  let head = Core.next_cell anchor in
  Atomic.set head a;
  Atomic.set (Core.next_cell a) b;
  Atomic.set (Core.next_cell b) a;
  Alcotest.(check int) "size stops at the back edge" 2 (Pop_ds.Ds_common.size_seq Core.iter_seq head);
  Alcotest.check_raises "cycle rejected" (Failure "hm_core: keys not strictly ascending")
    (fun () -> Core.check_seq heap head);
  let smr =
    T.create
      (Pop_core.Smr_config.default ~max_threads:1 ())
      (Pop_runtime.Softsignal.create ~max_threads:1)
      heap
  in
  let h = T.start_op (T.register smr ~tid:0) in
  Alcotest.(check bool) "find ends" false (Core.contains_in_op h (T.slots smr) anchor head 9)

(* The update-heavy shape: 65,536 keys over 16,384 buckets must load
   every bucket with exactly 4 keys, 2 of them even, so a prefill of the
   even keys leaves no bucket empty. *)
let hmht_hash_spreads_keys () =
  let nbuckets = 16_384 in
  let keys = Array.make nbuckets 0 and evens = Array.make nbuckets 0 in
  for k = 0 to 65_535 do
    let b = Pop_ds.Hash_table.hash nbuckets k in
    keys.(b) <- keys.(b) + 1;
    if k mod 2 = 0 then evens.(b) <- evens.(b) + 1
  done;
  Array.iteri
    (fun b n ->
      if n <> 4 || evens.(b) <> 2 then
        Alcotest.failf "bucket %d holds %d keys, %d even; expected 4 and 2" b n evens.(b))
    keys

let suite =
  List.concat_map per_ds Dispatch.all_ds_ext
  @ [
      case "hml: check_seq rejects a chain reaching Unlinked; marks are skipped"
        hm_core_unlinked_fails_check;
      case "hml: a cyclic chain ends every walk and fails check_seq" hm_core_cycle_terminates;
      case "hmht: the hash spreads every key range over every bucket" hmht_hash_spreads_keys;
      case "hmht: a cadence insert+delete pair allocates within 2 words of hp-pop's"
        cadence_pair_words;
    ]
