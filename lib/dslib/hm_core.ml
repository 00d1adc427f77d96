(** Harris-Michael lock-free linked list machinery (Michael 2002), the
    engine behind both the HML list and the HMHT hash table.

    A next cell holds the successor node itself, so an insert or an
    unlink swaps one existing pointer and allocates nothing. A deletion
    mark is a marker node CASed into the deleted node's cell: a
    node-typed record the heap never sees, whose own cell holds the
    deleted node's successor and never changes. [find] unlinks marked
    nodes as it goes — restarting the traversal as a fresh operation
    after each unlink, which keeps the write (the unlink CAS and retire)
    inside an NBR write phase without violating its
    one-write-phase-per-op rule.

    Every pointer step goes through [T.read] with three rotating
    reservation slots (prev, curr, next) and re-validates [prev.next]
    after reading [curr.next] — the standard hazard-pointer discipline
    that makes all reservation-based schemes in this repository safe.
    Nodes travel as reservation witnesses ([cell Heap.node T.reserved]),
    so every dereference is forced through [T.check]. *)

open Pop_core
module Heap = Pop_sim.Heap

module Make (T : Smr_typed.S) = struct
  (* The node's payload is its [next] cell and its key sits in the node
     header: a hop is node -> [Cell] -> atomic -> node, and a key read
     is one load. [Unlinked] is the base case that lets the first cell
     exist: every cell needs a node and every node a cell, so fresh
     cells point at [unlinked], the one node whose payload is no cell. *)
  type cell = Unlinked | Cell of cell Heap.node Atomic.t

  type link = cell Heap.node Atomic.t

  exception Retry_find

  (* Never live ([seq] odd) and never linked by a correct run: a chain
     that reaches it linked a node before setting its [next]. *)
  let rec unlinked : cell Heap.node =
    { Heap.id = min_int; seq = 1; key = 0; payload = Unlinked; birth_era = 0;
      retire_era = max_int; free_next = unlinked }

  let payload _id = Cell (Atomic.make unlinked)

  let node_key (n : cell Heap.node) = n.Heap.key

  let next_cell (n : cell Heap.node) =
    match n.Heap.payload with
    | Cell c -> c
    | Unlinked -> failwith "hm_core: read an unlinked cell"

  (* A marker carries the head sentinel's key, which no next cell ever
     holds otherwise, and the id reservations read as "none", so
     reserving one protects nothing and costs nothing. *)
  let marker succ =
    { Heap.id = min_int; seq = 0; key = min_int; payload = Cell (Atomic.make succ);
      birth_era = 0; retire_era = max_int; free_next = unlinked }

  let is_marker (n : cell Heap.node) = n.Heap.key = min_int

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
    Atomic.set (next_cell head) tail;
    head

  let head_cell ~tail = Atomic.make tail

  type find_res = {
    found : bool;
    fprev : cell Heap.node;
    fprev_cell : link;
    fcurr : cell Heap.node T.reserved;  (* read at [fprev_cell] *)
    fnext : cell Heap.node T.reserved;  (* curr's successor (meaningful when curr < tail) *)
  }

  (* One traversal attempt; raises [Retry_find] when the list moved under
     us or after unlinking a marked node. Slots rotate prev<-curr<-next. *)
  let find_attempt a sl anchor head key =
    let rec step prev prev_cell curr_w sprev scurr snext =
      (* First dereference of curr: it was reserved by the read that
         produced [curr_w] and validated reachable by the previous
         iteration's prev re-check (or read from the head cell). *)
      T.check a curr_w;
      let curr = T.value curr_w in
      if node_key curr = max_int then
        { found = false; fprev = prev; fprev_cell = prev_cell; fcurr = curr_w; fnext = curr_w }
      else begin
        let cell = next_cell curr in
        let next_w = T.read a snext cell Fun.id in
        if Atomic.get prev_cell != curr then raise Retry_find;
        let next = T.value next_w in
        (* [is_marker] written out: a helper referenced here would be
           one more free variable in [step]'s closure, a word per find. *)
        if node_key next = min_int then begin
          (* curr is logically deleted: reserve its frozen successor,
             re-validate, unlink curr, then restart the traversal as a
             fresh operation. *)
          let succ = T.value (T.read a snext (next_cell next) Fun.id) in
          if Atomic.get prev_cell != curr then raise Retry_find;
          let w = T.enter_write_phase a [| prev; curr |] in
          if Atomic.compare_and_set prev_cell curr succ then T.retire w curr;
          ignore (T.reopen_op w);
          raise Retry_find
        end
        else if node_key curr >= key || node_key next <= node_key curr then
          (* A successor whose key does not exceed curr's exists only on
             a chain that an unsafe scheme broke by recycling a node
             under a traversal (identity CASes then suffer ABA). Stopping
             there keeps every traversal finite, even round a cycle;
             [check_seq] reports the break. *)
          { found = node_key curr = key; fprev = prev; fprev_cell = prev_cell; fcurr = curr_w;
            fnext = next_w }
        else step curr cell next_w scurr snext sprev
      end
    in
    step anchor head (T.read a sl.(0) head Fun.id) sl.(2) sl.(0) sl.(1)

  let rec find a sl anchor head key =
    match find_attempt a sl anchor head key with
    | r -> r
    | exception Retry_find -> find a sl anchor head key

  (* The in-op bodies below assume the caller bracketed them with
     start_op/end_op (see Ds_common.with_op). Every CAS expects a node
     this operation has reserved: insert's and the unlink's [curr], the
     mark's successor. *)

  let contains_in_op a sl anchor head key = (find a sl anchor head key).found

  let rec insert_in_op a sl anchor head key =
    let r = find a sl anchor head key in
    if r.found then false
    else begin
      let curr = T.value r.fcurr in
      let n = T.alloc a in
      n.Heap.key <- key;
      Atomic.set (next_cell n) curr;
      let w = T.enter_write_phase a [| r.fprev; curr |] in
      if Atomic.compare_and_set r.fprev_cell curr n then true
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
      let curr = T.value r.fcurr and succ = T.value r.fnext in
      let w = T.enter_write_phase a [| r.fprev; curr; succ |] in
      (* Logical deletion: freeze curr's cell behind a marker. *)
      if not (Atomic.compare_and_set (next_cell curr) succ (marker succ)) then begin
        let a = T.reopen_op w in
        delete_in_op a sl anchor head key
      end
      else begin
        (* The mark is the linearization point; nothing after it may
           restart (NBR), so on unlink failure the marked node is left
           for a later find to unlink and retire. *)
        if Atomic.compare_and_set r.fprev_cell curr succ then T.retire w curr;
        true
      end
    end

  (* Sequential (quiescent) helpers, from a head cell to the tail. *)

  (* Stops at a successor whose key does not exceed its node's, which
     only a broken chain has (see [find]), so a cycle cannot hang it. *)
  let iter_seq head f =
    let rec go n =
      if node_key n <> max_int then begin
        let next = Atomic.get (next_cell n) in
        let marked = is_marker next in
        if not marked then f (node_key n);
        let next = if marked then Atomic.get (next_cell next) else next in
        if node_key next > node_key n then go next
      end
    in
    go (Atomic.get head)

  let size_seq head =
    let c = ref 0 in
    iter_seq head (fun _ -> incr c);
    !c

  (* Structural invariants: strictly ascending keys from the head cell
     to the tail, every linked node is live (anything freed-but-linked
     would be a reclamation bug), and the chain never reaches the
     [unlinked] base node (a node linked before its [next] was set).
     A marked node is still linked, so it is checked like any other;
     the walk steps over its marker. *)
  let check_seq heap head =
    let rec go n last =
      if n.Heap.payload == Unlinked then failwith "hm_core: chain reaches an unlinked cell";
      let k = node_key n in
      if not (Heap.is_live n) then failwith "hm_core: freed node still linked";
      if k <= last then failwith "hm_core: keys not strictly ascending";
      if k <> max_int then begin
        let next = Atomic.get (next_cell n) in
        go (if is_marker next then Atomic.get (next_cell next) else next) k
      end
    in
    ignore heap;
    go (Atomic.get head) min_int
end
