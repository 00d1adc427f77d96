(** Harris-Michael lock-free linked list machinery (Michael 2002), the
    engine behind both the HML list and the HMHT hash table.

    Deletion marks live in the deleted node's own [next] link (an
    immutable [Link] block swapped by CAS, so expected-value comparisons
    are physical equality). [find] unlinks marked nodes as it goes —
    restarting the traversal as a fresh operation after each unlink,
    which keeps the write (the unlink CAS and retire) inside an NBR
    write phase without violating its one-write-phase-per-op rule.

    Every pointer step goes through [T.read] with three rotating
    reservation slots (prev, curr, next) and re-validates [prev.next]
    after reading [curr.next] — the standard hazard-pointer discipline
    that makes all reservation-based schemes in this repository safe.
    The in-op entry points take the operation's [active] handle and the
    instance's slot witnesses; link values travel as reservation
    witnesses ([link T.reserved]), so every dereference is forced
    through [T.deref]. *)

open Pop_core
module Heap = Pop_sim.Heap

module Make (T : Smr_typed.S) = struct
  (* The node's [next] cell is its whole payload and its key sits in
     the node header: a hop is node -> cell -> [Link] -> node, and a key
     read is one load. The target sits in the [Link] block itself, one
     allocation per store. [Nil] is only the placeholder in fresh
     payloads; no linked node ever carries it. *)
  type cell = link Atomic.t

  and link = Nil | Link of { tgt : cell Heap.node; marked : bool }

  exception Retry_find

  let payload _id = Atomic.make Nil

  let proj = function Link l -> l.tgt | Nil -> failwith "hm_core: read the Nil placeholder"

  let node_key (n : cell Heap.node) = n.Heap.key

  let next_cell (n : cell Heap.node) = n.Heap.payload

  let make_tail heap =
    let tail = Heap.sentinel heap in
    tail.Heap.key <- max_int;
    tail

  (* A chain starts at a head cell: a bucket's own cell, or a head
     sentinel's [next] cell. The entry points take it with an anchor, the
     sentinel that stands as the [prev] node of the chain's first node;
     only [T.enter_write_phase] (NBR's write-phase reservation) sees the
     anchor, and like every sentinel it is never retired. *)
  let make_head heap ~tail =
    let head = Heap.sentinel heap in
    head.Heap.key <- min_int;
    Atomic.set (next_cell head) (Link { tgt = tail; marked = false });
    head

  let head_cell ~tail = Atomic.make (Link { tgt = tail; marked = false })

  type find_res = {
    found : bool;
    fprev : cell Heap.node;
    fprev_cell : link Atomic.t;
    fcurr_link : link T.reserved;  (* witness read at [fprev_cell]; target is curr *)
    fnext_link : link T.reserved;  (* witness of curr.next (meaningful when curr < tail) *)
  }

  (* One traversal attempt; raises [Retry_find] when the list moved under
     us or after unlinking a marked node. Slots rotate prev<-curr<-next. *)
  let find_attempt a sl anchor head key =
    let rec step prev_node prev_cell curr_link sprev scurr snext =
      (* First dereference of curr: it was reserved by the read that
         produced [curr_link] and validated reachable by the previous
         iteration's prev re-check (or read from the head cell). *)
      let curr_w = T.project curr_link proj in
      T.check a curr_w;
      let curr = T.value curr_w in
      if node_key curr = max_int then
        { found = false; fprev = prev_node; fprev_cell = prev_cell; fcurr_link = curr_link;
          fnext_link = curr_link }
      else begin
        let nl = T.read a snext (next_cell curr) proj in
        if Atomic.get prev_cell != T.value curr_link then raise Retry_find;
        (* A match, not a helper call: a helper referenced here would be
           one more free variable in [step]'s closure, a word per find. *)
        match T.value nl with
        | Link { tgt = next; marked = true } ->
            (* curr is logically deleted: unlink it, then restart the
               traversal as a fresh operation. *)
            let w = T.enter_write_phase a [| prev_node; curr |] in
            if
              Atomic.compare_and_set prev_cell (T.value curr_link)
                (Link { tgt = next; marked = false })
            then T.retire w curr;
            ignore (T.reopen_op w);
            raise Retry_find
        | Link _ | Nil ->
            if node_key curr >= key then
              { found = node_key curr = key; fprev = prev_node; fprev_cell = prev_cell;
                fcurr_link = curr_link; fnext_link = nl }
            else step curr (next_cell curr) nl scurr snext sprev
      end
    in
    step anchor head (T.read a sl.(0) head proj) sl.(2) sl.(0) sl.(1)

  let rec find a sl anchor head key =
    match find_attempt a sl anchor head key with
    | r -> r
    | exception Retry_find -> find a sl anchor head key

  (* The in-op bodies below assume the caller bracketed them with
     start_op/end_op (see Ds_common.with_op). *)

  let contains_in_op a sl anchor head key = (find a sl anchor head key).found

  let rec insert_in_op a sl anchor head key =
    let r = find a sl anchor head key in
    if r.found then false
    else begin
      let n = T.alloc a in
      n.Heap.key <- key;
      Atomic.set (next_cell n)
        (Link { tgt = proj (T.value r.fcurr_link); marked = false });
      let w = T.enter_write_phase a [| r.fprev |] in
      if
        Atomic.compare_and_set r.fprev_cell (T.value r.fcurr_link)
          (Link { tgt = n; marked = false })
      then true
      else begin
        (* Never published: hand the node straight back to the heap. *)
        T.free_unpublished w n;
        let a = T.reopen_op w in
        insert_in_op a sl anchor head key
      end
    end

  let rec delete_in_op a sl anchor head key =
    let r = find a sl anchor head key in
    if not r.found then false
    else begin
      let curr = proj (T.value r.fcurr_link) in
      let w = T.enter_write_phase a [| r.fprev; curr; proj (T.value r.fnext_link) |] in
      (* Logical deletion: mark curr's own next link. *)
      if
        not
          (Atomic.compare_and_set (next_cell curr) (T.value r.fnext_link)
             (Link { tgt = proj (T.value r.fnext_link); marked = true }))
      then begin
        let a = T.reopen_op w in
        delete_in_op a sl anchor head key
      end
      else begin
        (* The mark is the linearization point; nothing after it may
           restart (NBR), so on unlink failure the marked node is left
           for a later find to unlink and retire. *)
        if
          Atomic.compare_and_set r.fprev_cell (T.value r.fcurr_link)
            (Link { tgt = proj (T.value r.fnext_link); marked = false })
        then T.retire w curr;
        true
      end
    end

  (* Sequential (quiescent) helpers, from a head cell to the tail. *)

  let iter_seq head f =
    let rec go n =
      if node_key n <> max_int then begin
        let l = Atomic.get (next_cell n) in
        (match l with Link { marked = false; _ } -> f (node_key n) | Link _ | Nil -> ());
        go (proj l)
      end
    in
    go (proj (Atomic.get head))

  let size_seq head =
    let c = ref 0 in
    iter_seq head (fun _ -> incr c);
    !c

  (* Structural invariants: strictly ascending keys from the head cell
     to the tail, every linked node is live (anything freed-but-linked
     would be a reclamation bug), and the chain never reaches the [Nil]
     placeholder (a node linked before its [next] was set). *)
  let check_seq heap head =
    let rec go l last =
      match l with
      | Nil -> failwith "hm_core: chain reaches the Nil placeholder"
      | Link { tgt = n; _ } ->
          let k = node_key n in
          if not (Heap.is_live n) then failwith "hm_core: freed node still linked";
          if k <= last then failwith "hm_core: keys not strictly ascending";
          if k <> max_int then go (Atomic.get (next_cell n)) k
    in
    ignore heap;
    go (Atomic.get head) min_int
end
