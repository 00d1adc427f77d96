(** The Harris-Michael sorted linked list (HML in the paper's plots):
    one Hm_core chain behind the SET interface. Its head sentinel is
    the chain's anchor and the sentinel's [next] cell its head cell. *)

open Pop_core
module Heap = Pop_sim.Heap

module Make (T : Smr_typed.S) : Set_intf.SET = struct
  module Core = Hm_core.Make (T)
  module Common = Ds_common.Make (T)
  include Common.Shell

  let name = "hml"

  type state = { anchor : Core.cell Heap.node; head : Core.link }

  type t = (Core.cell, state) Common.set

  type ctx = (Core.cell, state, unit) Common.ctx

  let create scfg dcfg ~hub : t =
    let base = Common.make_base scfg dcfg hub Core.payload in
    let tail = Core.make_tail base.heap in
    let anchor = Core.make_head base.heap ~tail in
    { base; st = { anchor; head = Core.next_cell anchor } }

  let insert (ctx : ctx) key =
    Common.with_op ctx.h (fun a -> Core.insert_in_op a ctx.sl ctx.st.anchor ctx.st.head key)

  let delete (ctx : ctx) key =
    Common.with_op ctx.h (fun a -> Core.delete_in_op a ctx.sl ctx.st.anchor ctx.st.head key)

  let contains (ctx : ctx) key =
    Common.with_op ctx.h (fun a -> Core.contains_in_op a ctx.sl ctx.st.anchor ctx.st.head key)

  (* The reservation both [stall] and [crash] hold: a protected read of
     the structure's first pointer, never written back, so the set's
     contents are unaffected however long it stays pinned. *)
  let pin (ctx : ctx) a = ignore (T.read a ctx.sl.(0) ctx.st.head Fun.id)

  let stall = Common.stall pin

  let crash = Common.crash pin

  let iter_seq (s : t) = Core.iter_seq s.st.head

  let size_seq = Ds_common.size_seq iter_seq

  let keys_seq = Ds_common.keys_seq iter_seq

  let check_invariants (s : t) = Core.check_seq s.base.heap s.st.head
end
