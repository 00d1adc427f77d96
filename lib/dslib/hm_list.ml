(** The Harris-Michael sorted linked list (HML in the paper's plots):
    one Hm_core chain behind the SET interface. Its head sentinel is
    the chain's anchor and the sentinel's [next] cell its head cell. *)

open Pop_core
module Heap = Pop_sim.Heap

module Make (T : Smr_typed.S) : Set_intf.SET = struct
  module Core = Hm_core.Make (T)
  module Common = Ds_common.Make (T)

  let name = "hml"

  let smr_name = T.name

  type t = { base : Core.cell Common.base; anchor : Core.cell Heap.node; head : Core.link }

  type ctx = {
    s : t;
    h : (Core.cell, Smr_typed.idle) T.handle;
    sl : T.slot array;
    tid : int;
  }

  let create scfg dcfg ~hub =
    let base = Common.make_base scfg dcfg hub Core.payload in
    let tail = Core.make_tail base.heap in
    let anchor = Core.make_head base.heap ~tail in
    { base; anchor; head = Core.next_cell anchor }

  let register s ~tid =
    { s; h = T.register s.base.smr ~tid; sl = T.slots s.base.smr; tid }

  let insert ctx key =
    Common.with_op ctx.h (fun a -> Core.insert_in_op a ctx.sl ctx.s.anchor ctx.s.head key)

  let delete ctx key =
    Common.with_op ctx.h (fun a -> Core.delete_in_op a ctx.sl ctx.s.anchor ctx.s.head key)

  let contains ctx key =
    Common.with_op ctx.h (fun a -> Core.contains_in_op a ctx.sl ctx.s.anchor ctx.s.head key)

  let poll ctx = T.poll ctx.h

  (* The reservation both [stall] and [crash] hold: a protected read of
     the structure's first pointer, never written back, so the set's
     contents are unaffected however long it stays pinned. *)
  let stall_pin ctx =
    let cell = ctx.s.head in
    fun a -> ignore (T.read a ctx.sl.(0) cell Fun.id)

  let stall ?wake ctx ~seconds ~polling =
    Common.stall_in_op ?wake ctx.h ~seconds ~polling ~pin:(stall_pin ctx)

  let crash ctx = Common.crash_in_op ctx.h ~pin:(stall_pin ctx)

  let flush ctx = T.flush ctx.h

  let deregister ctx = T.deregister ctx.h

  let size_seq s = Core.size_seq s.head

  let keys_seq s =
    let acc = ref [] in
    Core.iter_seq s.head (fun k -> acc := k :: !acc);
    List.rev !acc

  let check_invariants s = Core.check_seq s.base.heap s.head

  let heap_live s = Heap.live_nodes s.base.heap

  let heap_uaf s = Heap.uaf_count s.base.heap

  let heap_double_free s = Heap.double_free_count s.base.heap

  let smr_unreclaimed s = T.unreclaimed s.base.smr

  let smr_stats s = T.stats s.base.smr

  let smr_violations s = T.violation_breakdown s.base.smr
end
