(** Concurrent integration stress: every data structure under every safe
    reclamation algorithm, on a small hot key range with aggressive
    reclamation, checked for use-after-free, double frees, structural
    invariants and size consistency. Also proves the detector works by
    running the unsafe scheme and expecting violations. *)

open Tu
open Pop_harness

let stress_cfg ds smr =
  {
    Runner.default_cfg with
    ds;
    smr;
    threads = 3;
    duration = 0.25;
    key_range = 192;
    reclaim_freq = 24;
    epoch_freq = 8;
  }

let unsafe_detected () =
  (* A leaky-free scheme under contention on a tiny key range must be
     caught by the heap instrumentation. Retry a few times: unsafety is
     probabilistic, but overwhelmingly likely with these parameters. *)
  let rec attempt n =
    let r =
      Runner.run
        {
          (stress_cfg Dispatch.HML Dispatch.UNSAFE) with
          key_range = 64;
          duration = 0.4;
          reclaim_freq = 4;
          threads = 4;
          seed = 1000 + n;
        }
    in
    if r.Runner.uaf > 0 || r.Runner.double_free > 0 || not r.Runner.invariants_ok then ()
    else if n > 0 then attempt (n - 1)
    else Alcotest.fail "unsafe scheme produced no detectable violation"
  in
  attempt 3

let read_mostly_cell ds smr () =
  let r =
    Runner.run { (stress_cfg ds smr) with load = Workload.Mix Workload.read_heavy; key_range = 256 }
  in
  if not (Runner.consistent r) then
    Alcotest.failf "inconsistent read-heavy cell: %s" r.Runner.invariant_error

(* Disjoint key stripes: each thread works only on its own stripe with a
   deterministic op stream and tracks the expected final content. With
   no cross-thread key conflicts, every stripe must end exactly at its
   owner's sequential model — catching lost updates, phantom nodes and
   cross-stripe corruption under full concurrency. *)
let disjoint_stripes ds smr () =
  let threads = 3 and stripe = 64 and ops = 4_000 in
  let (module S) = Dispatch.set_module ds smr in
  let scfg =
    {
      (Pop_core.Smr_config.default ~max_threads:threads ()) with
      reclaim_freq = 16;
      max_hp = 16 (* the skip list needs 2*levels+2 *);
    }
  in
  let dcfg =
    {
      (Pop_ds.Ds_config.default ~key_range:(threads * stripe)) with
      ht_load = 2;
      ab_branch = 4;
      skip_levels = 4;
    }
  in
  let hub = Pop_runtime.Softsignal.create ~max_threads:threads in
  let s = S.create scfg dcfg ~hub in
  let worker tid () =
    let ctx = S.register s ~tid in
    let body () =
      let rng = Pop_runtime.Rng.make (555 + tid) in
      let model = Array.make stripe false in
      for _ = 1 to ops do
        let i = Pop_runtime.Rng.int rng stripe in
        let k = (tid * stripe) + i in
        if Pop_runtime.Rng.bool rng then begin
          let expect = not model.(i) in
          if S.insert ctx k <> expect then Alcotest.failf "t%d: insert %d diverged" tid k;
          model.(i) <- true
        end
        else begin
          let expect = model.(i) in
          if S.delete ctx k <> expect then Alcotest.failf "t%d: delete %d diverged" tid k;
          model.(i) <- false
        end;
        S.poll ctx
      done;
      S.flush ctx;
      model
    in
    (* Deregister even on failure, or peers block on this thread's acks
       and the real assertion never surfaces. *)
    match body () with
    | model ->
        S.deregister ctx;
        model
    | exception e ->
        (try S.deregister ctx with _ -> ());
        raise e
  in
  let models = Array.map Domain.join (Array.init threads (fun tid -> Domain.spawn (worker tid))) in
  S.check_invariants s;
  let keys = S.keys_seq s in
  let expected = ref [] in
  for tid = threads - 1 downto 0 do
    for i = stripe - 1 downto 0 do
      if models.(tid).(i) then expected := ((tid * stripe) + i) :: !expected
    done
  done;
  if keys <> !expected then
    Alcotest.failf "final contents diverge (%d vs %d keys)" (List.length keys)
      (List.length !expected);
  Alcotest.(check int) "no UAF" 0 (S.heap_uaf s);
  Alcotest.(check int) "no double free" 0 (S.heap_double_free s)

let suite =
  let matrix =
    List.concat_map
      (fun ds ->
        List.map
          (fun smr ->
            case
              (Printf.sprintf "stress %s/%s" (Dispatch.ds_name ds) (Dispatch.smr_name smr))
              (small_node_cell ~duration:0.25 ds smr))
          Dispatch.all_smr)
      Dispatch.all_ds_ext
  in
  let read_mostly =
    List.map
      (fun ds ->
        case
          (Printf.sprintf "read-heavy %s/epoch-pop" (Dispatch.ds_name ds))
          (read_mostly_cell ds Dispatch.EPOCHPOP))
      Dispatch.all_ds
  in
  let stripes =
    List.concat_map
      (fun ds ->
        List.map
          (fun smr ->
            case
              (Printf.sprintf "disjoint stripes %s/%s" (Dispatch.ds_name ds)
                 (Dispatch.smr_name smr))
              (disjoint_stripes ds smr))
          Dispatch.[ EPOCHPOP; HPPOP; NBR ])
      Dispatch.all_ds_ext
  in
  matrix @ read_mostly @ stripes
  @ [ case "unsafe scheme is detectably unsafe" unsafe_detected ]
