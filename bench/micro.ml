(* The Bechamel micro suite for the read-path costs (the paper's section
   2.1.2 claim): the reservation primitives, then one single-threaded
   256-key HML list per SMR under contains and under 50i/50d updates. *)

open Bechamel
open Pop_harness
module Smr_config = Pop_core.Smr_config
module Rng = Pop_runtime.Rng

(* Keys (and, for updates, the operation in the low bit) are drawn
   before timing and replayed cyclically, so the staged closure measures
   the set operation, not the generator. *)
let key_cycle = 4096

let items ~update =
  let rng = Rng.make (if update then 9 else 7) in
  Array.init key_cycle (fun _ ->
      let k = Rng.int rng 256 in
      if update then (k lsl 1) lor Bool.to_int (Rng.bool rng) else k)

(* Nodes a staged contains visits, averaged over the key cycle: a search
   for k walks every prefilled key below k, then stops on the first node
   at or above it (a key or the tail). *)
let contains_hops =
  let keys = Workload.prefill_keys ~key_range:256 in
  let visits k = 1 + List.length (List.filter (fun x -> x < k) keys) in
  let total = Array.fold_left (fun acc k -> acc + visits k) 0 (items ~update:false) in
  float_of_int total /. float_of_int key_cycle

(* A single-threaded list prefilled to half of 256 keys. [~update:false]
   stages one contains over the full key range (the pure read path, with
   reclamation effectively off); [~update:true] stages an insert or a
   delete with a pass every 128 retires. *)
let hml_test ~update smr =
  let (module S) = Dispatch.set_module Dispatch.HML smr in
  let reclaim_freq = if update then 128 else 1 lsl 20 in
  let scfg = { (Smr_config.default ~max_threads:2 ()) with reclaim_freq } in
  let dcfg = Pop_ds.Ds_config.default ~key_range:256 in
  let hub = Pop_runtime.Softsignal.create ~max_threads:2 in
  let s = S.create scfg dcfg ~hub in
  let ctx = S.register s ~tid:0 in
  List.iter (fun k -> ignore (S.insert ctx k)) (Workload.prefill_keys ~key_range:256);
  let items = items ~update and i = ref 0 in
  (* Each closure indexes [items] itself: without flambda a shared
     helper would be one more call inside the timed region. *)
  Test.make ~name:(Dispatch.smr_name smr)
    (if update then
       Staged.stage (fun () ->
           let op = Array.unsafe_get items (!i land (key_cycle - 1)) in
           incr i;
           if op land 1 = 1 then ignore (S.insert ctx (op lsr 1))
           else ignore (S.delete ctx (op lsr 1)))
     else
       Staged.stage (fun () ->
           let k = Array.unsafe_get items (!i land (key_cycle - 1)) in
           incr i;
           ignore (S.contains ctx k)))

(* The primitive cost asymmetry the whole paper is about: a private
   reservation (plain store) vs an eagerly published one (fenced: OCaml's
   [Atomic.set] is an [xchg] on x86). *)
let primitive_tests =
  let row = Array.make 8 0 in
  let cell = Atomic.make 0 in
  [
    Test.make ~name:"reserve-private(plain store)"
      (Staged.stage (fun () -> Array.unsafe_set row 0 42));
    Test.make ~name:"reserve-shared(atomic store)" (Staged.stage (fun () -> Atomic.set cell 42));
  ]

(* Bechamel's OLS exposes its bootstrap interval only through [OLS.pp]
   ("... (confidence: HI to LO); ..."), so read it back from there. *)
let ci95 est =
  let txt = Format.asprintf "%a" Analyze.OLS.pp est and key = "confidence: " in
  let n = String.length key and len = String.length txt in
  let rec at i =
    if i + n > len then (nan, nan)
    else if not (String.equal (String.sub txt i n) key) then at (i + 1)
    else
      try
        Scanf.sscanf (String.sub txt (i + n) (len - i - n)) "%f to %f" (fun a b ->
            (Float.min a b, Float.max a b))
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> (nan, nan)
  in
  at 0

(* A row whose fit is poor (r^2 < 0.8) is noise, not a result: measure
   that test again, up to [attempts] times in all, and keep the best fit.
   [tries] in the row says how many measurements it took. *)
let attempts = 4

let run_bechamel ~name tests =
  let ols = Analyze.ols ~bootstrap:200 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let measure test =
    let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name ~fmt:"%s %s" [ test ]) in
    match List.of_seq (Hashtbl.to_seq (Analyze.all ols instance raw)) with
    | [ (label, est) ] ->
        let ns =
          match Analyze.OLS.estimates est with Some (t :: _) -> t | Some [] | None -> nan
        in
        let r2 = match Analyze.OLS.r_square est with Some r -> r | None -> nan in
        let lo, hi = ci95 est in
        (label, ns, r2, lo, hi)
    | _ -> invalid_arg "run_bechamel: expected one estimate per test"
  in
  let rec best test tries ((_, _, r2, _, _) as row) =
    if r2 >= 0.8 || tries >= attempts then (row, tries)
    else
      let ((_, _, r2', _, _) as row') = measure test in
      best test (tries + 1) (if Float.compare r2' r2 > 0 then row' else row)
  in
  let rows = List.map (fun test -> best test 1 (measure test)) tests in
  let rows =
    List.sort (fun ((_, a, _, _, _), _) ((_, b, _, _, _), _) -> Float.compare a b) rows
  in
  Report.section (Printf.sprintf "Micro: %s (ns per op, single thread)" name);
  Report.table
    ~header:[ "case"; "ns/op"; "95% CI"; "r^2"; "tries" ]
    ~rows:
      (List.map
         (fun ((label, ns, r2, lo, hi), tries) ->
           [ label; Printf.sprintf "%.1f" ns; Printf.sprintf "%.1f-%.1f" lo hi;
             Printf.sprintf "%.3f" r2; string_of_int tries ])
         rows);
  (* Bechamel's grouped labels already carry the group name. *)
  rows

(* The cost of one protected hop (the paper's section 2.1.2 argument):
   each contains row, fit and interval included, divided by
   {!contains_hops}. *)
let contains_group = "hml contains, size 256 (paper sec. 2.1.2)"

let per_hop_rows contains_rows =
  let group = Printf.sprintf "hml contains per hop (%.1f hops), size 256" contains_hops
  and h = contains_hops
  and skip = String.length contains_group in
  List.map
    (fun ((label, ns, r2, lo, hi), tries) ->
      let smr = String.sub label skip (String.length label - skip) in
      ((group ^ smr, ns /. h, r2, lo /. h, hi /. h), tries))
    contains_rows

(* BENCH_micro.json: one label/ns/interval/fit row per test. *)
let fig () =
  let primitives = run_bechamel ~name:"reservation primitives" primitive_tests in
  let contains =
    run_bechamel ~name:contains_group
      (List.map (hml_test ~update:false) Dispatch.paper_smrs)
  in
  let per_hop = per_hop_rows contains in
  Report.table ~header:[ "case"; "ns/hop" ]
    ~rows:
      (List.map (fun ((label, ns, _, _, _), _) -> [ label; Printf.sprintf "%.2f" ns ]) per_hop);
  let rows =
    primitives @ contains @ per_hop
    @ run_bechamel ~name:"hml 50i/50d, size 256"
        (List.map (hml_test ~update:true) Dispatch.paper_smrs)
  in
  Json.List
    (List.map
       (fun ((label, ns, r2, lo, hi), tries) ->
         Json.Obj
           [ ("label", Json.String label); ("ns_per_op", Float ns); ("ci95_lo", Float lo);
             ("ci95_hi", Float hi); ("r_square", Float r2); ("tries", Int tries) ])
       rows)
