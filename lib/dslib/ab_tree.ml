(** Relaxed external (a,b)-tree (ABT in the paper's plots), standing in
    for Brown's LLX/SCX (a,b)-tree with the same SMR interaction:
    copy-on-write node replacement under per-node locks, optimistic
    lock-free traversals, wholesale retire of replaced nodes.

    Keys live in leaves (sorted arrays of up to [b = ab_branch] keys);
    internal nodes hold [c] children and [c-1] separators with child [i]
    covering [keys[i-1] <= k < keys[i]]. Nodes are frozen after
    publication except their child pointers (replaced under the owning
    node's lock) and the [marked] flag. Balancing is relaxed:

    - a full leaf splits into the parent when the parent has room;
    - when the parent is full, the leaf is replaced by a 2-child
      "mini internal" (local height growth instead of split propagation);
    - a leaf emptied by deletion is dropped from its parent; a 2-child
      parent collapses into the surviving sibling.

    A permanent anchor internal (one child, no separators) sits above the
    root, so updates always have a lockable parent, and grandparent /
    parent locks are taken in root-to-leaf order (deadlock free).

    Node constructors take the write-phase handle: allocation is only
    legal once the write set is published, and the typed API makes that
    ordering structural. *)

open Pop_core
open Pop_runtime
module Heap = Pop_sim.Heap

module Make (T : Smr_typed.S) : Set_intf.SET = struct
  module Common = Ds_common.Make (T)
  include Common.Shell

  let name = "abt"

  type data = {
    mutable leaf : bool;
    mutable nkeys : int; (* leaf: #keys; internal: #children *)
    mutable marked : bool;
    keys : int array; (* length b *)
    children : data Heap.node option Atomic.t array; (* length b *)
    lock : Spinlock.t;
  }

  let proj = function Some n -> n | None -> assert false

  let pl (n : data Heap.node) = n.Heap.payload

  type state = { anchor : data Heap.node; b : int }

  type t = (data, state) Common.set

  (* A thread's scratch ([ctx.loc]) holds [b + 1] keys: a leaf's keys
     plus the one being inserted. *)
  type ctx = (data, state, int array) Common.ctx

  let payload_for b _id =
    {
      leaf = true;
      nkeys = 0;
      marked = false;
      keys = Array.make b 0;
      children = Array.init b (fun _ -> Atomic.make None);
      lock = Spinlock.create ();
    }

  let create scfg dcfg ~hub : t =
    let b = dcfg.Ds_config.ab_branch in
    let base = Common.make_base scfg dcfg hub (payload_for b) in
    let heap = base.Common.heap in
    let root = Heap.sentinel heap in
    (pl root).leaf <- true;
    (pl root).nkeys <- 0;
    let anchor = Heap.sentinel heap in
    (pl anchor).leaf <- false;
    (pl anchor).nkeys <- 1;
    Atomic.set (pl anchor).children.(0) (Some root);
    { base; st = { anchor; b } }

  let register (s : t) ~tid : ctx = Common.attach s ~tid (Array.make (s.st.b + 1) 0)

  (* Child index for [key] in internal node [n]. *)
  let route n key =
    let p = pl n in
    let c = p.nkeys in
    let rec find i = if i >= c - 1 then c - 1 else if key < p.keys.(i) then i else find (i + 1) in
    find 0

  let leaf_mem l key =
    let p = pl l in
    let rec scan i = i < p.nkeys && (p.keys.(i) = key || scan (i + 1)) in
    scan 0

  type path = {
    gp : data Heap.node;
    gpcell : data Heap.node option Atomic.t;
    p : data Heap.node;
    pcell : data Heap.node option Atomic.t;
    lidx : int; (* index of the leaf within p *)
    l : data Heap.node;
  }

  exception Retry_search

  (* Descend to the leaf for [key] with rotating reservation slots.
     After reading a child out of [l], validate that [l] is still
     unmarked (hence still linked, hence the child was reachable and
     unretired when reserved); restart from the anchor otherwise. *)
  let search (ctx : ctx) a key =
    let rec go gp gpcell p pcell lidx l_r sfree =
      let l_w = T.project l_r proj in
      T.check a l_w;
      let l = T.value l_w in
      if (pl l).leaf then { gp; gpcell; p; pcell; lidx; l }
      else begin
        let idx = route l key in
        let cell = (pl l).children.(idx) in
        let c = T.read a ctx.sl.(sfree) cell proj in
        if (pl l).marked then raise Retry_search;
        (* the slot that held gp is free next *)
        go p pcell l cell idx c (match sfree with 0 -> 1 | 1 -> 2 | _ -> 0)
      end
    in
    let rec attempt () =
      let anchor = ctx.st.anchor in
      let cell0 = (pl anchor).children.(0) in
      let n0_r = T.read a ctx.sl.(0) cell0 proj in
      match
        (let n0 = T.deref a n0_r proj in
         if (pl n0).leaf then
           { gp = anchor; gpcell = cell0; p = anchor; pcell = cell0; lidx = 0; l = n0 }
         else begin
           let idx = route n0 key in
           let cell1 = (pl n0).children.(idx) in
           let n1 = T.read a ctx.sl.(1) cell1 proj in
           if (pl n0).marked then raise Retry_search;
           go anchor cell0 n0 cell1 idx n1 2
         end)
      with
      | r -> r
      | exception Retry_search -> attempt ()
    in
    attempt ()

  let points_to cell n = match Atomic.get cell with Some x -> x == n | None -> false

  let contains (ctx : ctx) key =
    Common.with_op ctx.h (fun a -> leaf_mem (search ctx a key).l key)

  (* Node constructors (fresh nodes are private until linked). All
     allocation happens in the write phase, so each takes [w]. *)

  let new_leaf w src count =
    let n = T.alloc w in
    let p = pl n in
    p.leaf <- true;
    p.marked <- false;
    p.nkeys <- count;
    Array.blit src 0 p.keys 0 count;
    n

  let new_internal w =
    let n = T.alloc w in
    let p = pl n in
    p.leaf <- false;
    p.marked <- false;
    n

  (* Copy leaf [l]'s keys plus [key] (sorted) into ctx.loc; returns count. *)
  let merged_keys (ctx : ctx) l key =
    let p = pl l in
    let rec copy i j =
      if i >= p.nkeys then begin
        ctx.loc.(j) <- key;
        j + 1
      end
      else if p.keys.(i) < key then begin
        ctx.loc.(j) <- p.keys.(i);
        copy (i + 1) (j + 1)
      end
      else begin
        ctx.loc.(j) <- key;
        Array.blit p.keys i ctx.loc (j + 1) (p.nkeys - i);
        j + 1 + p.nkeys - i
      end
    in
    copy 0 0

  (* Split ctx.loc[0..n) into two leaves; returns (left, right, separator). *)
  let split_leaf (ctx : ctx) w n =
    let half = (n + 1) / 2 in
    let left = new_leaf w ctx.loc half in
    let right_src = Array.sub ctx.loc half (n - half) in
    let right = new_leaf w right_src (n - half) in
    (left, right, (pl right).keys.(0))

  (* A 2-child internal replacing an overfull leaf when the parent has no
     room (relaxed local height growth). *)
  let mini_internal w left right sep =
    let ni = new_internal w in
    let p = pl ni in
    p.nkeys <- 2;
    p.keys.(0) <- sep;
    Atomic.set p.children.(0) (Some left);
    Atomic.set p.children.(1) (Some right);
    ni

  (* Copy of internal [p] with child [idx] replaced by [left]+[right] and
     [sep] inserted at separator position [idx]. *)
  let internal_with_split w pnode idx left right sep =
    let src = pl pnode in
    let c = src.nkeys in
    let ni = new_internal w in
    let dst = pl ni in
    dst.nkeys <- c + 1;
    Array.blit src.keys 0 dst.keys 0 idx;
    dst.keys.(idx) <- sep;
    Array.blit src.keys idx dst.keys (idx + 1) (c - 1 - idx);
    for i = 0 to idx - 1 do
      Atomic.set dst.children.(i) (Atomic.get src.children.(i))
    done;
    Atomic.set dst.children.(idx) (Some left);
    Atomic.set dst.children.(idx + 1) (Some right);
    for i = idx + 1 to c - 1 do
      Atomic.set dst.children.(i + 1) (Atomic.get src.children.(i))
    done;
    ni

  (* Copy of internal [p] without child [idx] (and one separator). *)
  let internal_without w pnode idx =
    let src = pl pnode in
    let c = src.nkeys in
    let ni = new_internal w in
    let dst = pl ni in
    dst.nkeys <- c - 1;
    let drop = if idx = 0 then 0 else idx - 1 in
    let j = ref 0 in
    for i = 0 to c - 2 do
      if i <> drop then begin
        dst.keys.(!j) <- src.keys.(i);
        incr j
      end
    done;
    let j = ref 0 in
    for i = 0 to c - 1 do
      if i <> idx then begin
        Atomic.set dst.children.(!j) (Atomic.get src.children.(i));
        incr j
      end
    done;
    ni

  let unlock2 a b =
    Spinlock.unlock (pl b).lock;
    Spinlock.unlock (pl a).lock

  let insert (ctx : ctx) key =
    Common.with_op ctx.h (fun a ->
        let b = ctx.st.b in
        let rec attempt a =
          let path = search ctx a key in
          if leaf_mem path.l key then false
          else if (pl path.l).nkeys < b then begin
            (* Fast path: replace the leaf in place. *)
            let w = T.enter_write_phase a [| path.p; path.l |] in
            Common.lock_serving w (pl path.p).lock;
            if (pl path.p).marked || not (points_to path.pcell path.l) then begin
              Spinlock.unlock (pl path.p).lock;
              attempt (T.reopen_op w)
            end
            else begin
              let n = merged_keys ctx path.l key in
              let nl = new_leaf w ctx.loc n in
              (pl path.l).marked <- true;
              Atomic.set path.pcell (Some nl);
              Spinlock.unlock (pl path.p).lock;
              T.retire w path.l;
              true
            end
          end
          else if path.p == ctx.st.anchor then begin
            (* Overfull root leaf: grow the tree under the anchor. *)
            let w = T.enter_write_phase a [| path.p; path.l |] in
            Common.lock_serving w (pl path.p).lock;
            if not (points_to path.pcell path.l) then begin
              Spinlock.unlock (pl path.p).lock;
              attempt (T.reopen_op w)
            end
            else begin
              let n = merged_keys ctx path.l key in
              let left, right, sep = split_leaf ctx w n in
              (pl path.l).marked <- true;
              Atomic.set path.pcell (Some (mini_internal w left right sep));
              Spinlock.unlock (pl path.p).lock;
              T.retire w path.l;
              true
            end
          end
          else begin
            (* Split: lock grandparent then parent (root-to-leaf order). *)
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
              unlock2 path.gp path.p;
              attempt (T.reopen_op w)
            end
            else begin
              let n = merged_keys ctx path.l key in
              let left, right, sep = split_leaf ctx w n in
              if (pl path.p).nkeys < b then begin
                (* Absorb the split into a rebuilt parent. *)
                let np = internal_with_split w path.p path.lidx left right sep in
                (pl path.p).marked <- true;
                (pl path.l).marked <- true;
                Atomic.set path.gpcell (Some np);
                unlock2 path.gp path.p;
                T.retire w path.p;
                T.retire w path.l
              end
              else begin
                (* Parent full: local height growth. *)
                (pl path.l).marked <- true;
                Atomic.set path.pcell (Some (mini_internal w left right sep));
                unlock2 path.gp path.p;
                T.retire w path.l
              end;
              true
            end
          end
        in
        attempt a)

  let delete (ctx : ctx) key =
    Common.with_op ctx.h (fun a ->
        let rec attempt a =
          let path = search ctx a key in
          if not (leaf_mem path.l key) then false
          else if (pl path.l).nkeys > 1 || path.p == ctx.st.anchor then begin
            (* Fast path: shrink (or empty, if it is the root leaf). *)
            let w = T.enter_write_phase a [| path.p; path.l |] in
            Common.lock_serving w (pl path.p).lock;
            if (pl path.p).marked || not (points_to path.pcell path.l) then begin
              Spinlock.unlock (pl path.p).lock;
              attempt (T.reopen_op w)
            end
            else begin
              let src = pl path.l in
              let j = ref 0 in
              for i = 0 to src.nkeys - 1 do
                if src.keys.(i) <> key then begin
                  ctx.loc.(!j) <- src.keys.(i);
                  incr j
                end
              done;
              let nl = new_leaf w ctx.loc !j in
              (pl path.l).marked <- true;
              Atomic.set path.pcell (Some nl);
              Spinlock.unlock (pl path.p).lock;
              T.retire w path.l;
              true
            end
          end
          else begin
            (* The leaf empties: restructure under the grandparent. *)
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
              unlock2 path.gp path.p;
              attempt (T.reopen_op w)
            end
            else begin
              (pl path.l).marked <- true;
              (if (pl path.p).nkeys = 2 then begin
                 (* Collapse the 2-child parent into the sibling. *)
                 let sibling = Atomic.get (pl path.p).children.(1 - path.lidx) in
                 (pl path.p).marked <- true;
                 Atomic.set path.gpcell sibling
               end
               else begin
                 let np = internal_without w path.p path.lidx in
                 (pl path.p).marked <- true;
                 Atomic.set path.gpcell (Some np)
               end);
              unlock2 path.gp path.p;
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
  let pin (ctx : ctx) a = ignore (T.read a ctx.sl.(0) (pl ctx.st.anchor).children.(0) proj)

  let stall = Common.stall pin

  let crash = Common.crash pin

  let iter_seq (s : t) f =
    let rec go n =
      let p = pl n in
      if p.leaf then
        for i = 0 to p.nkeys - 1 do
          f p.keys.(i)
        done
      else
        for i = 0 to p.nkeys - 1 do
          go (proj (Atomic.get p.children.(i)))
        done
    in
    go s.st.anchor

  let size_seq = Ds_common.size_seq iter_seq

  let keys_seq = Ds_common.keys_seq iter_seq

  let check_invariants (s : t) =
    let b = s.st.b in
    (* Inclusive bounds: keys under [n] lie in [lo, hi]. *)
    let rec go n lo hi ~is_root =
      let p = pl n in
      if not (Heap.is_live n) then failwith "ab_tree: freed node still linked";
      if p.marked then failwith "ab_tree: marked node still linked";
      if Spinlock.is_locked p.lock then failwith "ab_tree: node left locked";
      if p.leaf then begin
        if p.nkeys > b then failwith "ab_tree: leaf overfull";
        if p.nkeys = 0 && not is_root then failwith "ab_tree: empty non-root leaf";
        for i = 0 to p.nkeys - 1 do
          if not (lo <= p.keys.(i) && p.keys.(i) <= hi) then
            failwith "ab_tree: leaf key out of range";
          if i > 0 && p.keys.(i) <= p.keys.(i - 1) then
            failwith "ab_tree: leaf keys not strictly ascending"
        done
      end
      else begin
        if p.nkeys < 2 || p.nkeys > b then failwith "ab_tree: internal arity out of range";
        for i = 0 to p.nkeys - 2 do
          if not (lo < p.keys.(i) && p.keys.(i) <= hi) then
            failwith "ab_tree: separator out of range";
          if i > 0 && p.keys.(i) <= p.keys.(i - 1) then
            failwith "ab_tree: separators not strictly ascending"
        done;
        for i = 0 to p.nkeys - 1 do
          let clo = if i = 0 then lo else p.keys.(i - 1) in
          let chi = if i = p.nkeys - 1 then hi else p.keys.(i) - 1 in
          go (proj (Atomic.get p.children.(i))) clo chi ~is_root:false
        done
      end
    in
    let root = proj (Atomic.get (pl s.st.anchor).children.(0)) in
    go root min_int max_int ~is_root:true
end
