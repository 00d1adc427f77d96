(** HMHT: a fixed-size hash table with one Harris-Michael list per
    bucket, the paper's fifth benchmark structure. Bucket count is
    [key_range / ht_load] (the paper's "load factor"). *)

open Pop_core
module Heap = Pop_sim.Heap

module Make (T : Smr_typed.S) : Set_intf.SET = struct
  module Core = Hm_core.Make (T)
  module Common = Ds_common.Make (T)

  let name = "hmht"

  let smr_name = T.name

  type t = { base : Core.cell Common.base; buckets : Core.bucket array }

  type ctx = {
    s : t;
    h : (Core.cell, Smr_typed.idle) T.handle;
    sl : T.slot array;
    tid : int;
  }

  (* Fibonacci hashing spreads consecutive keys across buckets. *)
  let hash nbuckets key = ((key * 0x9E3779B1) land max_int) mod nbuckets

  let create scfg dcfg ~hub =
    let base = Common.make_base scfg dcfg hub Core.payload in
    let nbuckets = max 1 (dcfg.Ds_config.key_range / dcfg.Ds_config.ht_load) in
    let tail = Core.make_tail base.heap in
    let buckets = Array.init nbuckets (fun _ -> Core.make_bucket base.heap ~tail) in
    { base; buckets }

  let register s ~tid =
    { s; h = T.register s.base.smr ~tid; sl = T.slots s.base.smr; tid }

  let bucket_of ctx key = ctx.s.buckets.(hash (Array.length ctx.s.buckets) key)

  let insert ctx key =
    Common.with_op ctx.h (fun a -> Core.insert_in_op a ctx.sl (bucket_of ctx key) key)

  let delete ctx key =
    Common.with_op ctx.h (fun a -> Core.delete_in_op a ctx.sl (bucket_of ctx key) key)

  let contains ctx key =
    Common.with_op ctx.h (fun a -> Core.contains_in_op a ctx.sl (bucket_of ctx key) key)

  let poll ctx = T.poll ctx.h

  (* The reservation both [stall] and [crash] hold: a protected read of
     the structure's first pointer, never written back, so the set's
     contents are unaffected however long it stays pinned. *)
  let stall_pin ctx =
    let cell = Core.next_cell ctx.s.buckets.(0).head in
    fun a -> ignore (T.read a ctx.sl.(0) cell Core.proj)

  let stall ?wake ctx ~seconds ~polling =
    Common.stall_in_op ?wake ctx.h ~seconds ~polling ~pin:(stall_pin ctx)

  let crash ctx = Common.crash_in_op ctx.h ~pin:(stall_pin ctx)

  let flush ctx = T.flush ctx.h

  let deregister ctx = T.deregister ctx.h

  let size_seq s = Array.fold_left (fun acc b -> acc + Core.size_seq b) 0 s.buckets

  let keys_seq s =
    let acc = ref [] in
    Array.iter (fun b -> Core.iter_seq b (fun k -> acc := k :: !acc)) s.buckets;
    List.sort Int.compare !acc

  let check_invariants s = Array.iter (Core.check_seq s.base.heap) s.buckets

  let heap_live s = Heap.live_nodes s.base.heap

  let heap_uaf s = Heap.uaf_count s.base.heap

  let heap_double_free s = Heap.double_free_count s.base.heap

  let smr_unreclaimed s = T.unreclaimed s.base.smr

  let smr_stats s = T.stats s.base.smr

  let smr_violations s = T.violation_breakdown s.base.smr
end
