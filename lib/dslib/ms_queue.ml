(** Michael-Scott lock-free FIFO queue (Michael & Scott 1996) over the
    uniform SMR interface — the classic second testbed for hazard
    pointers (Michael 2004 section 4), included here to demonstrate that
    the POP algorithms are drop-in for everything hazard pointers apply
    to, not just ordered sets.

    Head points at a dummy node whose successor holds the front value;
    dequeue swings head forward and retires the old dummy. Reservations:
    slot 0 = head/tail anchor, slot 1 = its successor; both validated by
    re-reading the anchor cell (Michael's D2/D5 checks), which [T.read]
    performs plus an explicit anchor re-check before dereferencing the
    successor. Successor witnesses are unwrapped with [T.value] where
    the algorithm only needs the pointer identity (help paths, write
    sets) and forced through [T.deref] before any payload access. *)

open Pop_core
module Heap = Pop_sim.Heap

module Make (T : Smr_typed.S) : Queue_intf.QUEUE = struct
  module Common = Ds_common.Make (T)
  include Common.Shell

  let name = "msq"

  (* A node's value is its header [key]; the payload is the [next] cell
     alone, unboxed, so reaching it is one load from the node. *)
  type data = { next : data Heap.node option Atomic.t } [@@unboxed]

  let payload _id = { next = Atomic.make None }

  let pl (n : data Heap.node) = n.Heap.payload

  type state = { head : data Heap.node Atomic.t; tail : data Heap.node Atomic.t }

  type t = (data, state) Common.set

  type ctx = (data, state, unit) Common.ctx

  let proj_node (n : data Heap.node) = n

  let create scfg ~hub : t =
    let base = Common.make_base scfg (Ds_config.default ~key_range:1) hub payload in
    let dummy = Heap.sentinel base.heap in
    { base; st = { head = Atomic.make dummy; tail = Atomic.make dummy } }

  (* Reserve the successor of [anchor_node] (read from its next cell),
     validating that the anchor cell still holds the anchor. *)
  let proj_opt_of anchor = function Some n -> n | None -> anchor

  let enqueue (ctx : ctx) v =
    Common.with_op ctx.h (fun a ->
        let n = T.alloc a in
        n.Heap.key <- v;
        Atomic.set (pl n).next None;
        let rec attempt a =
          let last_r = T.read a ctx.sl.(0) ctx.st.tail proj_node in
          T.check a (T.project last_r proj_node);
          let last = T.value last_r in
          let next_r = T.read a ctx.sl.(1) (pl last).next (proj_opt_of last) in
          if Atomic.get ctx.st.tail == last then begin
            match T.value next_r with
            | None ->
                let w = T.enter_write_phase a [| last |] in
                if Atomic.compare_and_set (pl last).next None (Some n) then
                  (* Swing tail; failure means someone helped. *)
                  ignore (Atomic.compare_and_set ctx.st.tail last n)
                else attempt (T.reopen_op w)
            | Some nx ->
                (* Tail is lagging: help swing it. *)
                let w = T.enter_write_phase a [| last; nx |] in
                ignore (Atomic.compare_and_set ctx.st.tail last nx);
                attempt (T.reopen_op w)
          end
          else attempt a
        in
        attempt a)

  let dequeue (ctx : ctx) =
    Common.with_op ctx.h (fun a ->
        let rec attempt a =
          let first_r = T.read a ctx.sl.(0) ctx.st.head proj_node in
          T.check a (T.project first_r proj_node);
          let first = T.value first_r in
          let next_r = T.read a ctx.sl.(1) (pl first).next (proj_opt_of first) in
          if Atomic.get ctx.st.head == first then begin
            let last = Atomic.get ctx.st.tail in
            match T.value next_r with
            | None -> None (* empty *)
            | Some nx0 ->
                if first == last then begin
                  (* Tail lagging behind a concurrent enqueue: help. *)
                  let w = T.enter_write_phase a [| first; nx0 |] in
                  ignore (Atomic.compare_and_set ctx.st.tail first nx0);
                  attempt (T.reopen_op w)
                end
                else begin
                  let nx_w = T.project next_r (proj_opt_of first) in
                  T.check a nx_w;
                  let nx = T.value nx_w in
                  let v = nx.Heap.key in
                  let w = T.enter_write_phase a [| first; nx |] in
                  if Atomic.compare_and_set ctx.st.head first nx then begin
                    T.retire w first;
                    Some v
                  end
                  else attempt (T.reopen_op w)
                end
          end
          else attempt a
        in
        attempt a)

  let to_list_seq (s : t) =
    let rec go acc cell =
      match Atomic.get cell with
      | None -> List.rev acc
      | Some n -> go (n.Heap.key :: acc) (pl n).next
    in
    go [] (pl (Atomic.get s.st.head)).next

  let length_seq s = List.length (to_list_seq s)

  let check_invariants (s : t) =
    (* Head's chain must reach tail's node, and every linked node must
       be live. *)
    let tail = Atomic.get s.st.tail in
    let rec go n seen_tail =
      if not (Heap.is_live n) then failwith "ms_queue: freed node still linked";
      let seen_tail = seen_tail || n == tail in
      match Atomic.get (pl n).next with
      | None -> if not seen_tail then failwith "ms_queue: tail not reachable from head"
      | Some nx -> go nx seen_tail
    in
    go (Atomic.get s.st.head) false
end
