(** External binary search tree in the style of David, Guerraoui &
    Trigonakis (DGT in the paper's plots): unsynchronized traversals and
    short lock-based updates with validation — the ASCY recipe.

    Keys live in leaves; internal nodes route with [k < key -> left,
    else right] and invariant left-subtree < key <= right-subtree.
    Insert replaces a leaf by a fresh internal (locking the parent);
    delete unlinks a leaf and its parent, promoting the sibling (locking
    grandparent then parent, in root-to-leaf order, so lock acquisition
    is deadlock free). Replaced nodes are marked and retired after
    unlock.

    Sentinels: a permanent anchor R (key [inf2], right child a permanent
    [inf2] leaf) above an inner sentinel S (key [inf1]); real keys are
    always < [inf1], so R's left child can never become a real leaf and R
    is never the parent of a deleted leaf (S can be unlinked and that is
    fine — the [inf1] sentinel leaf gets promoted in its place). *)

open Pop_core
open Pop_runtime
module Heap = Pop_sim.Heap

module Make (T : Smr_typed.S) : Set_intf.SET = struct
  module Common = Ds_common.Make (T)
  include Common.Shell

  let name = "dgt"

  let inf0 = max_int - 2

  let inf1 = max_int - 1

  let inf2 = max_int

  (* The key lives in the node header ([Heap.node.key]). *)
  type data = {
    mutable is_leaf : bool;
    mutable marked : bool;
    lock : Spinlock.t;
    left : data Heap.node option Atomic.t;
    right : data Heap.node option Atomic.t;
  }

  let payload _id =
    {
      is_leaf = true;
      marked = false;
      lock = Spinlock.create ();
      left = Atomic.make None;
      right = Atomic.make None;
    }

  let proj = function Some n -> n | None -> assert false

  let pl (n : data Heap.node) = n.Heap.payload

  type state = { anchor : data Heap.node }

  type t = (data, state) Common.set

  type ctx = (data, state, unit) Common.ctx

  let make_leaf_sentinel heap key =
    let n = Heap.sentinel heap in
    n.Heap.key <- key;
    (pl n).is_leaf <- true;
    n

  let create scfg dcfg ~hub : t =
    let base = Common.make_base scfg dcfg hub payload in
    let heap = base.Common.heap in
    let s = Heap.sentinel heap in
    s.Heap.key <- inf1;
    (pl s).is_leaf <- false;
    Atomic.set (pl s).left (Some (make_leaf_sentinel heap inf0));
    Atomic.set (pl s).right (Some (make_leaf_sentinel heap inf1));
    let anchor = Heap.sentinel heap in
    anchor.Heap.key <- inf2;
    (pl anchor).is_leaf <- false;
    Atomic.set (pl anchor).left (Some s);
    Atomic.set (pl anchor).right (Some (make_leaf_sentinel heap inf2));
    { base; st = { anchor } }

  let child_cell n key = if key < n.Heap.key then (pl n).left else (pl n).right

  type path = {
    gp : data Heap.node;
    gpcell : data Heap.node option Atomic.t; (* cell in gp holding p *)
    p : data Heap.node;
    pcell : data Heap.node option Atomic.t; (* cell in p holding l *)
    l : data Heap.node;
  }

  exception Retry_search

  (* Descend to the leaf for [key], reserving gp/p/l in rotating slots.
     After reading a child out of [l], validate that [l] is still
     unmarked: an unmarked internal is still linked, so the child was
     reachable (and unretired) when reserved. A marked [l] means the
     descent walked into a removed subtree — restart from the anchor. *)
  let search (ctx : ctx) a key =
    let rec go gp gpcell p pcell l_r sgp sp slf =
      let l_w = T.project l_r proj in
      T.check a l_w;
      let l = T.value l_w in
      if (pl l).is_leaf then { gp; gpcell; p; pcell; l }
      else begin
        let cell = child_cell l key in
        let c = T.read a sgp cell proj in
        if (pl l).marked then raise Retry_search;
        go p pcell l cell c sp slf sgp
      end
    in
    let rec attempt () =
      let anchor = ctx.st.anchor in
      let cell0 = (pl anchor).left in
      let n0_r = T.read a ctx.sl.(0) cell0 proj in
      match
        (let n0 = T.deref a n0_r proj in
         if (pl n0).is_leaf then
           (* Degenerate tree: a single leaf under the anchor; it only
              holds sentinel keys, so updates never need gp here. *)
           { gp = anchor; gpcell = cell0; p = anchor; pcell = cell0; l = n0 }
         else begin
           let cell1 = child_cell n0 key in
           let n1_r = T.read a ctx.sl.(1) cell1 proj in
           if (pl n0).marked then raise Retry_search;
           go anchor cell0 n0 cell1 n1_r ctx.sl.(2) ctx.sl.(0) ctx.sl.(1)
         end)
      with
      | r -> r
      | exception Retry_search -> attempt ()
    in
    attempt ()

  let points_to cell n = match Atomic.get cell with Some x -> x == n | None -> false

  let contains (ctx : ctx) key =
    Common.with_op ctx.h (fun a -> (search ctx a key).l.Heap.key = key)

  let insert (ctx : ctx) key =
    Common.with_op ctx.h (fun a ->
        let rec attempt a =
          let path = search ctx a key in
          let lkey = path.l.Heap.key in
          if lkey = key then false
          else begin
            let w = T.enter_write_phase a [| path.p; path.l |] in
            Common.lock_serving w (pl path.p).lock;
            if (pl path.p).marked || not (points_to path.pcell path.l) then begin
              Spinlock.unlock (pl path.p).lock;
              attempt (T.reopen_op w)
            end
            else begin
              let leaf = T.alloc w in
              leaf.Heap.key <- key;
              (pl leaf).is_leaf <- true;
              (pl leaf).marked <- false;
              let internal = T.alloc w in
              (pl internal).is_leaf <- false;
              (pl internal).marked <- false;
              if key < lkey then begin
                internal.Heap.key <- lkey;
                Atomic.set (pl internal).left (Some leaf);
                Atomic.set (pl internal).right (Some path.l)
              end
              else begin
                internal.Heap.key <- key;
                Atomic.set (pl internal).left (Some path.l);
                Atomic.set (pl internal).right (Some leaf)
              end;
              Atomic.set path.pcell (Some internal);
              Spinlock.unlock (pl path.p).lock;
              true
            end
          end
        in
        attempt a)

  let delete (ctx : ctx) key =
    Common.with_op ctx.h (fun a ->
        let rec attempt a =
          let path = search ctx a key in
          if path.l.Heap.key <> key then false
          else begin
            let w = T.enter_write_phase a [| path.gp; path.p; path.l |] in
            Common.lock_serving w (pl path.gp).lock;
            Common.lock_serving w (pl path.p).lock;
            let valid =
              (not (pl path.gp).marked)
              && (not (pl path.p).marked)
              && points_to path.gpcell path.p
              && points_to path.pcell path.l
            in
            if not valid then begin
              Spinlock.unlock (pl path.p).lock;
              Spinlock.unlock (pl path.gp).lock;
              attempt (T.reopen_op w)
            end
            else begin
              let sibling_cell =
                if path.pcell == (pl path.p).left then (pl path.p).right else (pl path.p).left
              in
              let sibling = Atomic.get sibling_cell in
              (pl path.p).marked <- true;
              (pl path.l).marked <- true;
              Atomic.set path.gpcell sibling;
              Spinlock.unlock (pl path.p).lock;
              Spinlock.unlock (pl path.gp).lock;
              T.retire w path.p;
              T.retire w path.l;
              true
            end
          end
        in
        attempt a)

  (* The reservation both [stall] and [crash] hold: a protected read of
     the structure's first pointer, never written back, so the set's
     contents are unaffected however long it stays pinned. *)
  let pin (ctx : ctx) a = ignore (T.read a ctx.sl.(0) (pl ctx.st.anchor).left proj)

  let stall = Common.stall pin

  let crash = Common.crash pin

  let iter_seq (s : t) f =
    let rec go n =
      let p = pl n in
      if p.is_leaf then begin
        if n.Heap.key < inf0 then f n.Heap.key
      end
      else begin
        go (proj (Atomic.get p.left));
        go (proj (Atomic.get p.right))
      end
    in
    go s.st.anchor

  let size_seq = Ds_common.size_seq iter_seq

  let keys_seq = Ds_common.keys_seq iter_seq

  let check_invariants (s : t) =
    (* Inclusive bounds: keys under [n] lie in [lo, hi]. *)
    let rec go n lo hi =
      let p = pl n and k = n.Heap.key in
      if not (Heap.is_live n) then failwith "ext_bst: freed node still linked";
      if p.marked then failwith "ext_bst: marked node still linked";
      if Spinlock.is_locked p.lock then failwith "ext_bst: node left locked";
      if p.is_leaf then begin
        if not (lo <= k && k <= hi) then failwith "ext_bst: leaf key out of range"
      end
      else begin
        if not (lo < k && k <= hi) then failwith "ext_bst: internal key out of range";
        go (proj (Atomic.get p.left)) lo (k - 1);
        go (proj (Atomic.get p.right)) k hi
      end
    in
    go s.st.anchor min_int max_int
end
