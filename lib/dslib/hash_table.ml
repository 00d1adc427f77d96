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
  include Common.Shell

  let name = "hmht"

  type state = { anchor : Core.cell Heap.node; heads : Core.link array }

  type t = (Core.cell, state) Common.set

  type ctx = (Core.cell, state, unit) Common.ctx

  let create scfg dcfg ~hub : t =
    let base = Common.make_base scfg dcfg hub Core.payload in
    let nbuckets = max 1 (dcfg.Ds_config.key_range / dcfg.Ds_config.ht_load) in
    let tail = Core.make_tail base.heap in
    let anchor = Core.make_head base.heap ~tail in
    { base; st = { anchor; heads = Array.init nbuckets (fun _ -> Core.head_cell ~tail) } }

  let head_of (ctx : ctx) key = ctx.st.heads.(hash (Array.length ctx.st.heads) key)

  let insert (ctx : ctx) key =
    Common.with_op ctx.h (fun a -> Core.insert_in_op a ctx.sl ctx.st.anchor (head_of ctx key) key)

  let delete (ctx : ctx) key =
    Common.with_op ctx.h (fun a -> Core.delete_in_op a ctx.sl ctx.st.anchor (head_of ctx key) key)

  let contains (ctx : ctx) key =
    Common.with_op ctx.h (fun a ->
        Core.contains_in_op a ctx.sl ctx.st.anchor (head_of ctx key) key)

  (* The reservation both [stall] and [crash] hold: a protected read of
     the structure's first pointer, never written back, so the set's
     contents are unaffected however long it stays pinned. *)
  let pin (ctx : ctx) a = ignore (T.read a ctx.sl.(0) ctx.st.heads.(0) Fun.id)

  let stall = Common.stall pin

  let crash = Common.crash pin

  let iter_seq (s : t) f = Array.iter (fun h -> Core.iter_seq h f) s.st.heads

  let size_seq = Ds_common.size_seq iter_seq

  let keys_seq = Ds_common.keys_seq iter_seq

  let check_invariants (s : t) = Array.iter (Core.check_seq s.base.heap) s.st.heads
end
