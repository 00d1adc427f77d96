(** SmrSan (Pop_check.Smr_check) tests: each protocol-violation category
    is seeded against a wrapped scheme and must be counted in [`Count]
    mode and raised in [`Raise] mode; clean sequences must stay at zero.
    Then the paper's full scheme × structure matrix runs under the
    sanitizer (zero violations expected), and the unsafe-free scheme
    must be flagged by the shadow state even when the heap's own UAF
    oracle misses the race. *)

open Pop_core
open Pop_harness
module Check = Pop_check.Smr_check
open Tu

module C = Check.Make (Pop_baselines.Hp)

let with_rig f =
  let rig = make_rig () in
  let g = C.create rig.cfg rig.hub rig.heap in
  let ctx = C.register g ~tid:0 in
  f rig g ctx

let vcheck name expect got = Alcotest.(check int) name expect got

let clean_sequence () =
  with_rig (fun _rig g ctx ->
      for _ = 1 to 5 do
        C.start_op ctx;
        let n = C.alloc ctx in
        let cell = Atomic.make n in
        let v = C.read ctx 0 cell Fun.id in
        C.check ctx v;
        C.enter_write_phase ctx [| v |];
        C.end_op ctx;
        C.retire ctx v;
        C.poll ctx
      done;
      C.flush ctx;
      C.deregister ctx;
      vcheck "no violations" 0 (Check.total (C.violations g));
      vcheck "stats surface" 0 (C.stats g).Smr_stats.violations)

let double_retire () =
  with_rig (fun _rig g ctx ->
      C.start_op ctx;
      let n = C.alloc ctx in
      C.end_op ctx;
      C.retire ctx n;
      C.retire ctx n;
      vcheck "double retire counted" 1 (C.violations g).Check.double_retire;
      vcheck "nothing else fired" 1 (Check.total (C.violations g));
      vcheck "stats carry the total" 1 (C.stats g).Smr_stats.violations)

let check_unreserved () =
  with_rig (fun _rig g ctx ->
      C.start_op ctx;
      let a = C.alloc ctx in
      (* Never read into a slot: not covered. *)
      C.check ctx a;
      vcheck "unreserved check" 1 (C.violations g).Check.check_unreserved;
      (* Reserve it: covered now. *)
      let _ = C.read ctx 0 (Atomic.make a) Fun.id in
      C.check ctx a;
      vcheck "covered check is clean" 1 (C.violations g).Check.check_unreserved;
      (* Overwrite the slot with another node: coverage is gone. *)
      let b = C.alloc ctx in
      let _ = C.read ctx 0 (Atomic.make b) Fun.id in
      C.check ctx a;
      vcheck "overwritten slot no longer covers" 2 (C.violations g).Check.check_unreserved;
      C.end_op ctx;
      (* A check outside any operation is also unreserved. *)
      C.check ctx b;
      vcheck "check outside op" 3 (C.violations g).Check.check_unreserved)

let read_outside_op () =
  with_rig (fun _rig g ctx ->
      let n = C.alloc ctx in
      let got = C.read ctx 0 (Atomic.make n) Fun.id in
      Alcotest.(check bool) "read still returns the value" true (got == n);
      vcheck "read outside op" 1 (C.violations g).Check.read_outside_op)

let slot_out_of_bounds () =
  with_rig (fun rig g ctx ->
      C.start_op ctx;
      let n = C.alloc ctx in
      let got = C.read ctx rig.cfg.Smr_config.max_hp (Atomic.make n) Fun.id in
      Alcotest.(check bool) "fallback read returns the value" true (got == n);
      vcheck "slot out of bounds" 1 (C.violations g).Check.slot_out_of_bounds;
      C.end_op ctx)

let write_phase_misuse () =
  with_rig (fun _rig g ctx ->
      C.enter_write_phase ctx [||];
      vcheck "outside an operation" 1 (C.violations g).Check.write_phase_misuse;
      C.start_op ctx;
      C.enter_write_phase ctx [||];
      C.enter_write_phase ctx [||];
      vcheck "second enter in one op" 2 (C.violations g).Check.write_phase_misuse;
      C.end_op ctx;
      vcheck "only write-phase misuse fired" 2 (Check.total (C.violations g)))

let unbalanced_op () =
  with_rig (fun _rig g ctx ->
      C.start_op ctx;
      C.start_op ctx;
      vcheck "nested start_op" 1 (C.violations g).Check.unbalanced_op;
      C.end_op ctx;
      C.end_op ctx;
      vcheck "spurious end_op" 2 (C.violations g).Check.unbalanced_op)

let use_after_deregister () =
  with_rig (fun _rig g ctx ->
      let n = C.alloc ctx in
      let cell = Atomic.make n in
      C.deregister ctx;
      C.start_op ctx;
      let got = C.read ctx 0 cell Fun.id in
      Alcotest.(check bool) "read degrades to a plain load" true (got == n);
      C.retire ctx n;
      C.deregister ctx;
      vcheck "every call counted" 4 (C.violations g).Check.use_after_deregister;
      vcheck "nothing else fired" 4 (Check.total (C.violations g)))

let raise_mode () =
  with_rig (fun _rig g ctx ->
      C.set_mode g `Raise;
      let raises f = match f () with _ -> false | exception Check.Violation _ -> true in
      let n = C.alloc ctx in
      Alcotest.(check bool) "read outside op raises" true
        (raises (fun () -> C.read ctx 0 (Atomic.make n) Fun.id));
      C.start_op ctx;
      Alcotest.(check bool) "unreserved check raises" true
        (raises (fun () -> C.check ctx n));
      C.end_op ctx;
      C.retire ctx n;
      Alcotest.(check bool) "double retire raises" true
        (raises (fun () -> C.retire ctx n));
      (* Back in count mode the same class of violation only counts. *)
      C.set_mode g `Count;
      Alcotest.(check bool) "count mode does not raise" false
        (raises (fun () -> C.retire ctx n)))

(* Stats-time audits: the three engine-accounting categories
   (orphan/segment/stamp misuse) are detected from the wrapped scheme's
   own counters when [stats] is observed, not per call. Doctor a scheme
   whose stats the test controls, so each audit fires deterministically
   — including in [`Raise] mode, where the raise comes out of [stats]
   itself. *)
let doctored = ref Smr_stats.zero

module Doctored = struct
  include Pop_baselines.Nr

  let stats _ = !doctored
end

module D = Check.Make (Doctored)

let audit_rig f =
  doctored := Smr_stats.zero;
  let rig = make_rig () in
  let g = D.create rig.cfg rig.hub rig.heap in
  f g

let audit_raises g =
  match D.stats g with _ -> false | exception Check.Violation _ -> true

let orphan_audit () =
  audit_rig (fun g ->
      doctored :=
        { Smr_stats.zero with Smr_stats.orphans_donated = 2; orphans_adopted = 5 };
      let s = D.stats g in
      vcheck "adoption deficit tallied" 3 (D.violations g).Check.orphan_misuse;
      vcheck "total surfaces through stats" 3 s.Smr_stats.violations;
      ignore (D.stats g);
      vcheck "repeated stats does not inflate" 3 (D.violations g).Check.orphan_misuse;
      D.set_mode g `Raise;
      Alcotest.(check bool) "raise mode fails fast from stats" true (audit_raises g);
      doctored :=
        { Smr_stats.zero with Smr_stats.orphans_donated = 5; orphans_adopted = 5 };
      Alcotest.(check bool) "balanced hand-off does not raise" false (audit_raises g))

let segment_audit () =
  audit_rig (fun g ->
      doctored := { Smr_stats.zero with Smr_stats.segment_occupancy = 97 };
      ignore (D.stats g);
      vcheck "full-but-legal occupancy is clean" 0 (D.violations g).Check.segment_misuse;
      doctored := { Smr_stats.zero with Smr_stats.segment_occupancy = 130 };
      ignore (D.stats g);
      vcheck "occupancy excess tallied" 30 (D.violations g).Check.segment_misuse;
      D.set_mode g `Raise;
      Alcotest.(check bool) "raise mode fails fast from stats" true (audit_raises g))

let stamp_audit () =
  audit_rig (fun g ->
      doctored := { Smr_stats.zero with Smr_stats.stale_stamps = 4 };
      ignore (D.stats g);
      vcheck "stale stamps tallied" 4 (D.violations g).Check.stamp_misuse;
      ignore (D.stats g);
      vcheck "repeated stats does not inflate" 4 (D.violations g).Check.stamp_misuse;
      D.set_mode g `Raise;
      Alcotest.(check bool) "raise mode fails fast from stats" true (audit_raises g);
      D.set_mode g `Count;
      Alcotest.(check bool) "count mode does not raise" false (audit_raises g))

(* Restart interplay: wrap NBR and drive a neutralization through the
   sanitizer. The Restart must reset the typestate so the usual
   catch-and-restart pattern (start_op with no end_op) is not counted
   as unbalanced. *)
module N = Check.Make (Pop_baselines.Nbr)

let restart_resets_typestate () =
  let rig = make_rig () in
  let g = N.create rig.cfg rig.hub rig.heap in
  let ctx = N.register g ~tid:0 in
  let peer = N.register g ~tid:1 in
  let n = N.alloc ctx in
  let cell = Atomic.make n in
  let restarted = ref false in
  (try
     N.start_op ctx;
     let _ = N.read ctx 0 cell Fun.id in
     (* A peer's reclamation round neutralizes every read-phase thread;
        our next read must raise Smr.Restart through the sanitizer. *)
     N.retire peer (N.alloc peer);
     N.flush peer;
     ignore (N.read ctx 1 cell Fun.id)
   with Smr.Restart -> restarted := true);
  if !restarted then begin
    (* The canonical recovery: start over with no end_op in between. *)
    N.start_op ctx;
    let v = N.read ctx 0 cell Fun.id in
    N.enter_write_phase ctx [| v |];
    N.check ctx v;
    N.end_op ctx
  end;
  Alcotest.(check bool) "neutralization observed" true !restarted;
  Alcotest.(check int) "no violations from the restart path" 0 (Check.total (N.violations g))

(* ------------------------------------------------------------------ *)
(* Whole-matrix integration through the harness                        *)

let sanitized_cfg ds smr =
  {
    Runner.default_cfg with
    ds;
    smr;
    threads = 3;
    duration = 0.12;
    key_range = 192;
    reclaim_freq = 24;
    epoch_freq = 8;
    ab_branch = 4;
    ht_load = 2;
    sanitize = true;
  }

let sanitized_cell ds smr () =
  let r = Runner.run (sanitized_cfg ds smr) in
  if r.Runner.uaf <> 0 then Alcotest.failf "UAF: %d" r.Runner.uaf;
  if r.Runner.double_free <> 0 then Alcotest.failf "double free: %d" r.Runner.double_free;
  if not r.Runner.invariants_ok then Alcotest.failf "invariants: %s" r.Runner.invariant_error;
  if r.Runner.total_ops = 0 then Alcotest.fail "no operations executed";
  let v = r.Runner.smr.Smr_stats.violations in
  if v <> 0 then
    Alcotest.failf "%d protocol violations under %s: %s" v (Dispatch.smr_name smr)
      (String.concat ", "
         (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) r.Runner.violations_by_category))

(* HMHT with 16 keys has 4 buckets, so most deletes unlink a bucket's
   first node and hand the table's shared anchor to
   [enter_write_phase]; HML with 16 keys is one short chain, where
   marks, marker-driven unlinks and inserts beside marked nodes race
   all the time. Two workers hammer it under the sanitizer; each key's
   final presence must equal its prefill plus the workers' net
   successful inserts of it. *)
let contended_heads ds smr () =
  let key_range = 16 and workers = 2 in
  let (module S) = Dispatch.set_module ~sanitize:true ds smr in
  let scfg =
    { (Smr_config.default ~max_threads:(workers + 1) ()) with reclaim_freq = 8; epoch_freq = 4 }
  in
  let s =
    S.create scfg (Pop_ds.Ds_config.default ~key_range)
      ~hub:(Pop_runtime.Softsignal.create ~max_threads:(workers + 1))
  in
  let pctx = S.register s ~tid:workers in
  let prefill = Array.init key_range (fun k -> k mod 2 = 0 && S.insert pctx k) in
  S.flush pctx;
  S.deregister pctx;
  let worker tid () =
    let ctx = S.register s ~tid in
    let rng = Pop_runtime.Rng.make (31 * (tid + 1)) in
    let net = Array.make key_range 0 in
    for _ = 1 to 3000 do
      let k = Pop_runtime.Rng.int rng key_range in
      match Pop_runtime.Rng.int rng 3 with
      | 0 -> if S.insert ctx k then net.(k) <- net.(k) + 1
      | 1 -> if S.delete ctx k then net.(k) <- net.(k) - 1
      | _ -> ignore (S.contains ctx k)
    done;
    S.flush ctx;
    S.deregister ctx;
    net
  in
  let nets = List.map Domain.join (List.init workers (fun tid -> Domain.spawn (worker tid))) in
  S.check_invariants s;
  let present = S.keys_seq s in
  for k = 0 to key_range - 1 do
    let tally = List.fold_left (fun acc net -> acc + net.(k)) (Bool.to_int prefill.(k)) nets in
    Alcotest.(check int) (Printf.sprintf "key %d tally" k) tally (Bool.to_int (List.mem k present))
  done;
  Alcotest.(check int) "uaf" 0 (S.heap_uaf s);
  Alcotest.(check int) "double free" 0 (S.heap_double_free s);
  Alcotest.(check int) "violations" 0 (S.smr_stats s).Smr_stats.violations

(* The unsafe scheme frees retired nodes immediately, so a reserved
   incarnation dies under a live reservation and the next check misses
   its (id, seq) pair — the sanitizer flags runs the heap's racy UAF
   counter can miss. Unsafety is probabilistic; retry a few seeds. *)
let unsafe_sanitized () =
  let rec attempt n =
    let r =
      Runner.run
        {
          (sanitized_cfg Dispatch.HML Dispatch.UNSAFE) with
          key_range = 64;
          duration = 0.4;
          reclaim_freq = 4;
          threads = 4;
          seed = 2000 + n;
        }
    in
    if r.Runner.smr.Smr_stats.violations > 0 then ()
    else if n > 0 then attempt (n - 1)
    else Alcotest.fail "sanitized unsafe-free run reported no violations"
  in
  attempt 3

let suite =
  [
    case "clean sequence stays at zero" clean_sequence;
    case "double retire" double_retire;
    case "check on unreserved node" check_unreserved;
    case "read outside an operation" read_outside_op;
    case "reservation slot out of bounds" slot_out_of_bounds;
    case "write-phase misuse" write_phase_misuse;
    case "unbalanced start/end" unbalanced_op;
    case "use after deregister" use_after_deregister;
    case "raise mode fails fast" raise_mode;
    case "stats-time audit: orphan accounting" orphan_audit;
    case "stats-time audit: segment occupancy" segment_audit;
    case "stats-time audit: era stamps" stamp_audit;
    case "NBR restart resets the typestate" restart_resets_typestate;
  ]
  @ List.concat_map
      (fun smr ->
        List.map
          (fun ds ->
            case
              (Printf.sprintf "sanitized %s/%s: zero violations" (Dispatch.ds_name ds)
                 (Dispatch.smr_name smr))
              (sanitized_cell ds smr))
          Dispatch.all_ds)
      Dispatch.paper_smrs
  @ List.map
      (fun smr ->
        case
          (Printf.sprintf "sanitized hmht/%s: contended bucket heads keep every key's tally"
             (Dispatch.smr_name smr))
          (contended_heads Dispatch.HMHT smr))
      Dispatch.paper_smrs
  @ List.map
      (fun smr ->
        case
          (Printf.sprintf "sanitized hml/%s: contended list keeps every key's tally"
             (Dispatch.smr_name smr))
          (contended_heads Dispatch.HML smr))
      Dispatch.paper_smrs
  @ [ case "unsafe-free is flagged by the sanitizer" unsafe_sanitized ]
