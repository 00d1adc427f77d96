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
  include Common.Shell

  let name = "ll"

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

  type state = { head : data Heap.node }

  type t = (data, state) Common.set

  type ctx = (data, state, unit) Common.ctx

  let create scfg dcfg ~hub : t =
    let base = Common.make_base scfg dcfg hub payload in
    let tail = Heap.sentinel base.heap in
    tail.Heap.key <- max_int;
    let head = Heap.sentinel base.heap in
    head.Heap.key <- min_int;
    Atomic.set head.Heap.payload.next (Some tail);
    { base; st = { head } }

  exception Retry_walk

  (* Traverse to the first node with key >= [key]; returns (pred, curr)
     both reserved (slots 0/1 rotating). The lazy list has no marks on
     its links, so hazard-style traversal must validate that [pred] is
     still unmarked after reserving [curr]: an unmarked pred is still
     linked, hence curr was reachable (and unretired) when reserved.
     A marked pred means the traversal walked onto a removed prefix —
     restart from the head. *)
  let walk (ctx : ctx) a key =
    let rec go pred spred scurr =
      let curr_r = T.read a scurr (next_cell pred) proj in
      if pred.Heap.payload.marked then raise Retry_walk;
      let curr_w = T.project curr_r proj in
      T.check a curr_w;
      let curr = T.value curr_w in
      if node_key curr < key then go curr scurr spred else (pred, curr)
    in
    let rec attempt () =
      match go ctx.st.head ctx.sl.(1) ctx.sl.(0) with
      | r -> r
      | exception Retry_walk -> attempt ()
    in
    attempt ()

  let validate pred curr =
    (not pred.Heap.payload.marked)
    && (not curr.Heap.payload.marked)
    && match Atomic.get (next_cell pred) with Some n -> n == curr | None -> false

  let contains (ctx : ctx) key =
    Common.with_op ctx.h (fun a ->
        let _, curr = walk ctx a key in
        node_key curr = key && not curr.Heap.payload.marked)

  let insert (ctx : ctx) key =
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

  let delete (ctx : ctx) key =
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

  (* The reservation both [stall] and [crash] hold: a protected read of
     the structure's first pointer, never written back, so the set's
     contents are unaffected however long it stays pinned. *)
  let pin (ctx : ctx) a = ignore (T.read a ctx.sl.(0) (next_cell ctx.st.head) proj)

  let stall = Common.stall pin

  let crash = Common.crash pin

  let iter_seq (s : t) f =
    let rec go n =
      if node_key n <> max_int then begin
        if (not n.Heap.payload.marked) && node_key n <> min_int then f (node_key n);
        go (proj (Atomic.get (next_cell n)))
      end
    in
    go s.st.head

  let size_seq = Ds_common.size_seq iter_seq

  let keys_seq = Ds_common.keys_seq iter_seq

  let check_invariants (s : t) =
    let rec go n last =
      let k = node_key n in
      if not (Heap.is_live n) then failwith "lazy_list: freed node still linked";
      if n.Heap.payload.marked then failwith "lazy_list: marked node still linked";
      if k <= last && k <> min_int then failwith "lazy_list: keys not strictly ascending";
      if Spinlock.is_locked n.Heap.payload.lock then failwith "lazy_list: node left locked";
      if k <> max_int then go (proj (Atomic.get (next_cell n))) (max k last)
    in
    go s.st.head min_int
end
