(** Lazy list (Heller et al. 2005): wait-free-style unsynchronized
    traversals, lock-based inserts/deletes with post-lock validation, and
    a logical [marked] flag on nodes (LL in the paper's plots).

    Locks are taken only after [enter_write_phase] (NBR's discipline) and
    spun with {!Ds_common.Make.lock_serving} so a spinning thread keeps
    serving pings. Nodes are retired after unlock. *)

open Pop_core
open Pop_runtime
module Heap = Pop_sim.Heap

module Make (T : Smr_typed.S) : Set_intf.SET = struct
  module Common = Ds_common.Make (T)

  let name = "ll"

  let smr_name = T.name

  (* The key lives in the node header ([Heap.node.key]). *)
  type data = {
    mutable marked : bool;
    lock : Spinlock.t;
    next : data Heap.node option Atomic.t;
  }

  let payload _id =
    { marked = false; lock = Spinlock.create (); next = Atomic.make None }

  let proj = function Some n -> n | None -> assert false

  let node_key (n : data Heap.node) = n.Heap.key

  let next_cell (n : data Heap.node) = n.Heap.payload.next

  type t = { base : data Common.base; head : data Heap.node }

  type ctx = { s : t; h : (data, Smr_typed.idle) T.handle; sl : T.slot array; tid : int }

  let create scfg dcfg ~hub =
    let base = Common.make_base scfg dcfg hub payload in
    let tail = Heap.sentinel base.heap in
    tail.Heap.key <- max_int;
    let head = Heap.sentinel base.heap in
    head.Heap.key <- min_int;
    Atomic.set head.Heap.payload.next (Some tail);
    { base; head }

  let register s ~tid =
    { s; h = T.register s.base.smr ~tid; sl = T.slots s.base.smr; tid }

  exception Retry_walk

  (* Traverse to the first node with key >= [key]; returns (pred, curr)
     both reserved (slots 0/1 rotating). The lazy list has no marks on
     its links, so hazard-style traversal must validate that [pred] is
     still unmarked after reserving [curr]: an unmarked pred is still
     linked, hence curr was reachable (and unretired) when reserved.
     A marked pred means the traversal walked onto a removed prefix —
     restart from the head. *)
  let walk ctx a key =
    let rec go pred spred scurr =
      let curr_r = T.read a scurr (next_cell pred) proj in
      if pred.Heap.payload.marked then raise Retry_walk;
      let curr_w = T.project curr_r proj in
      T.check a curr_w;
      let curr = T.value curr_w in
      if node_key curr < key then go curr scurr spred else (pred, curr)
    in
    let rec attempt () =
      match go ctx.s.head ctx.sl.(1) ctx.sl.(0) with
      | r -> r
      | exception Retry_walk -> attempt ()
    in
    attempt ()

  let validate pred curr =
    (not pred.Heap.payload.marked)
    && (not curr.Heap.payload.marked)
    && match Atomic.get (next_cell pred) with Some n -> n == curr | None -> false

  let contains ctx key =
    Common.with_op ctx.h (fun a ->
        let _, curr = walk ctx a key in
        node_key curr = key && not curr.Heap.payload.marked)

  let insert ctx key =
    Common.with_op ctx.h (fun a ->
        let rec attempt a =
          let pred, curr = walk ctx a key in
          let w = T.enter_write_phase a [| pred; curr |] in
          Common.lock_serving w pred.Heap.payload.lock;
          Common.lock_serving w curr.Heap.payload.lock;
          if not (validate pred curr) then begin
            Spinlock.unlock curr.Heap.payload.lock;
            Spinlock.unlock pred.Heap.payload.lock;
            attempt (T.reopen_op w)
          end
          else if node_key curr = key then begin
            Spinlock.unlock curr.Heap.payload.lock;
            Spinlock.unlock pred.Heap.payload.lock;
            false
          end
          else begin
            let n = T.alloc w in
            n.Heap.key <- key;
            n.Heap.payload.marked <- false;
            Atomic.set n.Heap.payload.next (Some curr);
            Atomic.set (next_cell pred) (Some n);
            Spinlock.unlock curr.Heap.payload.lock;
            Spinlock.unlock pred.Heap.payload.lock;
            true
          end
        in
        attempt a)

  let delete ctx key =
    Common.with_op ctx.h (fun a ->
        let rec attempt a =
          let pred, curr = walk ctx a key in
          if node_key curr <> key then false
          else begin
            let w = T.enter_write_phase a [| pred; curr |] in
            Common.lock_serving w pred.Heap.payload.lock;
            Common.lock_serving w curr.Heap.payload.lock;
            if not (validate pred curr) then begin
              Spinlock.unlock curr.Heap.payload.lock;
              Spinlock.unlock pred.Heap.payload.lock;
              attempt (T.reopen_op w)
            end
            else begin
              curr.Heap.payload.marked <- true;
              Atomic.set (next_cell pred) (Atomic.get (next_cell curr));
              Spinlock.unlock curr.Heap.payload.lock;
              Spinlock.unlock pred.Heap.payload.lock;
              T.retire w curr;
              true
            end
          end
        in
        attempt a)

  let poll ctx = T.poll ctx.h

  (* The reservation both [stall] and [crash] hold: a protected read of
     the structure's first pointer, never written back, so the set's
     contents are unaffected however long it stays pinned. *)
  let stall_pin ctx =
    let cell = next_cell ctx.s.head in
    fun a -> ignore (T.read a ctx.sl.(0) cell proj)

  let stall ?wake ctx ~seconds ~polling =
    Common.stall_in_op ?wake ctx.h ~seconds ~polling ~pin:(stall_pin ctx)

  let crash ctx = Common.crash_in_op ctx.h ~pin:(stall_pin ctx)

  let flush ctx = T.flush ctx.h

  let deregister ctx = T.deregister ctx.h

  let iter_seq s f =
    let rec go n =
      if node_key n <> max_int then begin
        if (not n.Heap.payload.marked) && node_key n <> min_int then f (node_key n);
        go (proj (Atomic.get (next_cell n)))
      end
    in
    go s.head

  let size_seq s =
    let c = ref 0 in
    iter_seq s (fun _ -> incr c);
    !c

  let keys_seq s =
    let acc = ref [] in
    iter_seq s (fun k -> acc := k :: !acc);
    List.rev !acc

  let check_invariants s =
    let rec go n last =
      let k = node_key n in
      if not (Heap.is_live n) then failwith "lazy_list: freed node still linked";
      if n.Heap.payload.marked then failwith "lazy_list: marked node still linked";
      if k <= last && k <> min_int then failwith "lazy_list: keys not strictly ascending";
      if Spinlock.is_locked n.Heap.payload.lock then failwith "lazy_list: node left locked";
      if k <> max_int then go (proj (Atomic.get (next_cell n))) (max k last)
    in
    go s.head min_int

  let heap_live s = Heap.live_nodes s.base.heap

  let heap_uaf s = Heap.uaf_count s.base.heap

  let heap_double_free s = Heap.double_free_count s.base.heap

  let smr_unreclaimed s = T.unreclaimed s.base.smr

  let smr_stats s = T.stats s.base.smr

  let smr_violations s = T.violation_breakdown s.base.smr
end
