(** HMHT: a fixed-size hash table with one Harris-Michael list per
    bucket, the paper's fifth benchmark structure. Bucket count is
    [key_range / ht_load] (the paper's "load factor"). A bucket is a
    bare head cell, as in Michael's array of head pointers; the table's
    one anchor sentinel stands as the [prev] node of every bucket's
    first node. *)

open Pop_core
module Heap = Pop_sim.Heap

(* Multiplicative hashing modulo a power of two keeps only the key's low
   bits: [key * 0x9E3779B1] alone maps keys that differ by a multiple of
   [nbuckets] to one bucket and keeps the parity of the key in the
   bucket's, so the even keys would fill the even buckets only. Folding
   the quotient [key / nbuckets] in first spreads every run of
   [nbuckets] consecutive keys over all buckets. *)
let hash nbuckets key = (((key + (key / nbuckets)) * 0x9E3779B1) land max_int) mod nbuckets

module Make (T : Smr_typed.S) : Set_intf.SET = struct
  module Core = Hm_core.Make (T)
  module Common = Ds_common.Make (T)

  let name = "hmht"

  let smr_name = T.name

  type t = { base : Core.cell Common.base; anchor : Core.cell Heap.node; heads : Core.link array }

  type ctx = {
    s : t;
    h : (Core.cell, Smr_typed.idle) T.handle;
    sl : T.slot array;
    tid : int;
  }

  let create scfg dcfg ~hub =
    let base = Common.make_base scfg dcfg hub Core.payload in
    let nbuckets = max 1 (dcfg.Ds_config.key_range / dcfg.Ds_config.ht_load) in
    let tail = Core.make_tail base.heap in
    let anchor = Core.make_head base.heap ~tail in
    { base; anchor; heads = Array.init nbuckets (fun _ -> Core.head_cell ~tail) }

  let register s ~tid =
    { s; h = T.register s.base.smr ~tid; sl = T.slots s.base.smr; tid }

  let head_of ctx key = ctx.s.heads.(hash (Array.length ctx.s.heads) key)

  let insert ctx key =
    Common.with_op ctx.h (fun a -> Core.insert_in_op a ctx.sl ctx.s.anchor (head_of ctx key) key)

  let delete ctx key =
    Common.with_op ctx.h (fun a -> Core.delete_in_op a ctx.sl ctx.s.anchor (head_of ctx key) key)

  let contains ctx key =
    Common.with_op ctx.h (fun a ->
        Core.contains_in_op a ctx.sl ctx.s.anchor (head_of ctx key) key)

  let poll ctx = T.poll ctx.h

  (* The reservation both [stall] and [crash] hold: a protected read of
     the structure's first pointer, never written back, so the set's
     contents are unaffected however long it stays pinned. *)
  let stall_pin ctx =
    let cell = ctx.s.heads.(0) in
    fun a -> ignore (T.read a ctx.sl.(0) cell Fun.id)

  let stall ?wake ctx ~seconds ~polling =
    Common.stall_in_op ?wake ctx.h ~seconds ~polling ~pin:(stall_pin ctx)

  let crash ctx = Common.crash_in_op ctx.h ~pin:(stall_pin ctx)

  let flush ctx = T.flush ctx.h

  let deregister ctx = T.deregister ctx.h

  let size_seq s = Array.fold_left (fun acc h -> acc + Core.size_seq h) 0 s.heads

  let keys_seq s =
    let acc = ref [] in
    Array.iter (fun h -> Core.iter_seq h (fun k -> acc := k :: !acc)) s.heads;
    List.sort Int.compare !acc

  let check_invariants s = Array.iter (Core.check_seq s.base.heap) s.heads

  let heap_live s = Heap.live_nodes s.base.heap

  let heap_uaf s = Heap.uaf_count s.base.heap

  let heap_double_free s = Heap.double_free_count s.base.heap

  let smr_unreclaimed s = T.unreclaimed s.base.smr

  let smr_stats s = T.stats s.base.smr

  let smr_violations s = T.violation_breakdown s.base.smr
end
