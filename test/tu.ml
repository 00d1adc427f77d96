(** Shared test utilities. *)

open Pop_runtime
open Pop_core
module Heap = Pop_sim.Heap

let case name f = Alcotest.test_case name `Quick f

(* A small SMR test rig: a two-slot hub with only thread 0 registered by
   default (ping rounds then complete immediately), a unit-payload heap,
   and aggressive reclamation so tests trigger passes with few retires. *)
type rig = {
  cfg : Smr_config.t;
  hub : Softsignal.t;
  heap : unit Heap.t;
}

let make_rig ?(max_threads = 2) ?(reclaim_freq = 4) ?(epoch_freq = 2) () =
  let cfg =
    {
      (Smr_config.default ~max_threads ()) with
      reclaim_freq;
      epoch_freq;
      pop_mult = 2;
    }
  in
  {
    cfg;
    hub = Softsignal.create ~max_threads;
    heap = Heap.create ~max_threads ~payload:(fun _ -> ()) ();
  }

(* Instantiate an SMR over a fresh rig and run [f rig g ctx0]. A
   functor rather than a first-class module, so the algorithm's abstract
   types stay usable inside [f]. *)
module Smr_rig (R : Smr.S) = struct
  let run ?max_threads ?reclaim_freq ?epoch_freq f =
    let rig = make_rig ?max_threads ?reclaim_freq ?epoch_freq () in
    let g = R.create rig.cfg rig.hub rig.heap in
    let ctx = R.register g ~tid:0 in
    f rig g ctx

  (* Retire [n] freshly allocated nodes. *)
  let retire_n ctx n =
    for _ = 1 to n do
      R.retire ctx (R.alloc ctx)
    done
end

(* Build a small SET instance (key range 64, aggressive reclamation). *)
module Set_rig (S : Pop_ds.Set_intf.SET) = struct
  let fresh () =
    let scfg =
      {
        (Smr_config.default ~max_threads:2 ()) with
        reclaim_freq = 8;
        max_hp = 16 (* room for the skip list's 2*levels+2 *);
      }
    in
    let dcfg =
      {
        (Pop_ds.Ds_config.default ~key_range:64) with
        ht_load = 2;
        ab_branch = 4;
        skip_levels = 4;
      }
    in
    let hub = Softsignal.create ~max_threads:2 in
    let s = S.create scfg dcfg ~hub in
    (s, S.register s ~tid:0)
end

let all_safe_smrs : (string * (module Smr.S)) list =
  [
    ("nr", (module Pop_baselines.Nr));
    ("hp", (module Pop_baselines.Hp));
    ("hp-asym", (module Pop_baselines.Hp_asym));
    ("he", (module Pop_baselines.Hazard_eras));
    ("ebr", (module Pop_baselines.Ebr));
    ("ibr", (module Pop_baselines.Ibr));
    ("nbr", (module Pop_baselines.Nbr));
    ("hp-pop", (module Hazard_ptr_pop));
    ("he-pop", (module Hazard_era_pop));
    ("epoch-pop", (module Epoch_pop));
    ("hyaline-1", (module Pop_baselines.Hyaline_one));
    ("hyaline-1s", (module Pop_baselines.Hyaline_one_s));
    ("cadence", (module Pop_baselines.Cadence));
  ]

let reclaiming_smrs = List.filter (fun (n, _) -> n <> "nr") all_safe_smrs

(* Deterministic interleaved op sequence applied to a SET and a model. *)
let check_against_model (module S : Pop_ds.Set_intf.SET) ops =
  let scfg =
    {
      (Smr_config.default ~max_threads:2 ()) with
      reclaim_freq = 8;
      max_hp = 16;
    }
  in
  let dcfg =
    {
      (Pop_ds.Ds_config.default ~key_range:64) with
      ht_load = 2;
      ab_branch = 4;
      skip_levels = 4;
    }
  in
  let hub = Softsignal.create ~max_threads:2 in
  let s = S.create scfg dcfg ~hub in
  let ctx = S.register s ~tid:0 in
  let model = ref [] in
  let mem k = List.mem k !model in
  List.iter
    (fun (op, k) ->
      match op with
      | `Insert ->
          let expect = not (mem k) in
          let got = S.insert ctx k in
          if got <> expect then
            Alcotest.failf "%s: insert %d returned %b, model says %b" S.name k got expect;
          if expect then model := k :: !model
      | `Delete ->
          let expect = mem k in
          let got = S.delete ctx k in
          if got <> expect then
            Alcotest.failf "%s: delete %d returned %b, model says %b" S.name k got expect;
          if expect then model := List.filter (fun x -> x <> k) !model
      | `Contains ->
          let expect = mem k in
          let got = S.contains ctx k in
          if got <> expect then
            Alcotest.failf "%s: contains %d returned %b, model says %b" S.name k got expect)
    ops;
  S.check_invariants s;
  let keys = S.keys_seq s in
  let expected = List.sort Int.compare !model in
  if keys <> expected then
    Alcotest.failf "%s: final keys diverge from model (%d vs %d keys)" S.name
      (List.length keys) (List.length expected);
  if S.size_seq s <> List.length expected then Alcotest.failf "%s: size_seq mismatch" S.name;
  S.flush ctx;
  S.deregister ctx;
  if S.heap_uaf s <> 0 then Alcotest.failf "%s: UAF detected" S.name;
  if S.heap_double_free s <> 0 then Alcotest.failf "%s: double free detected" S.name

(* qcheck generator for op sequences over a small key space. *)
let ops_gen : ([ `Insert | `Delete | `Contains ] * int) list QCheck2.Gen.t =
  let open QCheck2.Gen in
  list_size (int_range 0 400) (pair (oneofl [ `Insert; `Delete; `Contains ]) (int_range 0 63))

let all_sets_one_smr : (string * (module Pop_ds.Set_intf.SET)) list =
  List.map
    (fun ds ->
      ( Pop_harness.Dispatch.ds_name ds,
        Pop_harness.Dispatch.set_module ds Pop_harness.Dispatch.EPOCHPOP ))
    Pop_harness.Dispatch.all_ds_ext
