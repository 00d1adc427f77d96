(** Lazy skip list (Herlihy & Shavit, "The Art of Multiprocessor
    Programming", ch. 14.3): optimistic unsynchronized traversals,
    lock-based inserts/deletes with per-level validation, [marked] and
    [fully_linked] node flags.

    Not one of the paper's five structures — included as the extension
    the paper's generality claim invites, and as a reservation-pressure
    stressor: one operation holds up to [2*levels + 2] simultaneous
    reservations (every level's pred and succ), so [Smr_config.max_hp]
    must be at least that ([create] enforces it; the harness sizes it
    automatically). Lock acquisition is bottom-level-up, which orders
    locks by descending key — a consistent global order, so no
    deadlock. Retired towers are unlinked at every level (top-down,
    under locks) after being marked, which gives traversals the same
    validated-read discipline as the lazy list: after reserving a
    successor, re-check that its predecessor is unmarked, else restart. *)

open Pop_core
open Pop_runtime
module Heap = Pop_sim.Heap

module Make (T : Smr_typed.S) : Set_intf.SET = struct
  module Common = Ds_common.Make (T)
  include Common.Shell

  let name = "sl"

  (* The key lives in the node header ([Heap.node.key]). *)
  type data = {
    mutable top : int; (* highest level of this tower, 0-based *)
    mutable marked : bool;
    mutable fully_linked : bool;
    nexts : data Heap.node option Atomic.t array; (* length = levels *)
    lock : Spinlock.t;
  }

  let payload_for levels _id =
    {
      top = 0;
      marked = false;
      fully_linked = false;
      nexts = Array.init levels (fun _ -> Atomic.make None);
      lock = Spinlock.create ();
    }

  let proj = function Some n -> n | None -> assert false

  let pl (n : data Heap.node) = n.Heap.payload

  type state = { head : data Heap.node; levels : int }

  type t = (data, state) Common.set

  (* A thread's own tower-height generator, and its last find's pred and
     succ at each level. *)
  type scratch = { rng : Rng.t; preds : data Heap.node array; succs : data Heap.node array }

  type ctx = (data, state, scratch) Common.ctx

  let create scfg dcfg ~hub : t =
    let levels = dcfg.Ds_config.skip_levels in
    if scfg.Smr_config.max_hp < (2 * levels) + 2 then
      invalid_arg "Skip_list.create: max_hp must be at least 2*skip_levels+2";
    let base = Common.make_base scfg dcfg hub (payload_for levels) in
    let heap = base.Common.heap in
    let tail = Heap.sentinel heap in
    tail.Heap.key <- max_int;
    (pl tail).top <- levels - 1;
    (pl tail).fully_linked <- true;
    let head = Heap.sentinel heap in
    head.Heap.key <- min_int;
    (pl head).top <- levels - 1;
    (pl head).fully_linked <- true;
    for l = 0 to levels - 1 do
      Atomic.set (pl head).nexts.(l) (Some tail)
    done;
    { base; st = { head; levels } }

  let register (s : t) ~tid : ctx =
    let { head; levels } = s.st in
    let nodes () = Array.make levels head in
    Common.attach s ~tid { rng = Rng.make (0xabcd + tid); preds = nodes (); succs = nodes () }

  exception Retry_find

  (* Populate the scratch preds/succs for [key]; returns the level at which
     the key was found, or -1. Reservation slots: level [l]'s walk
     alternates between slots [2l] and [2l+1]; the final pred and succ
     of each level end up parked in that level's two slots, and the
     walk of lower levels never touches them. *)
  let find_attempt (ctx : ctx) a key =
    let sc = ctx.loc in
    let lfound = ref (-1) in
    let pred = ref ctx.st.head in
    for level = ctx.st.levels - 1 downto 0 do
      let sa = ctx.sl.(2 * level) and sb = ctx.sl.((2 * level) + 1) in
      let rec walk pred slot_parity =
        let slot = if slot_parity then sa else sb in
        let curr_r = T.read a slot (pl pred).nexts.(level) proj in
        if (pl pred).marked then raise Retry_find;
        let curr_w = T.project curr_r proj in
        T.check a curr_w;
        let curr = T.value curr_w in
        if curr.Heap.key < key then walk curr (not slot_parity) else (pred, curr)
      in
      let p, c = walk !pred true in
      sc.preds.(level) <- p;
      sc.succs.(level) <- c;
      if !lfound = -1 && c.Heap.key = key then lfound := level;
      pred := p
    done;
    !lfound

  let rec find ctx a key =
    match find_attempt ctx a key with r -> r | exception Retry_find -> find ctx a key

  let contains (ctx : ctx) key =
    Common.with_op ctx.h (fun a ->
        let sc = ctx.loc in
        let lfound = find ctx a key in
        lfound >= 0
        &&
        let c = pl sc.succs.(lfound) in
        c.fully_linked && not c.marked)

  (* Lock preds[0..top], skipping duplicates (the same node can be the
     pred at several levels; the spinlock is not reentrant). *)
  let lock_preds sc w top =
    for l = 0 to top do
      if l = 0 || sc.preds.(l) != sc.preds.(l - 1) then
        Common.lock_serving w (pl sc.preds.(l)).lock
    done

  let unlock_preds sc top =
    for l = top downto 0 do
      if l = 0 || sc.preds.(l) != sc.preds.(l - 1) then
        Spinlock.unlock (pl sc.preds.(l)).lock
    done

  let valid_level sc l =
    let pred = pl sc.preds.(l) and succ = pl sc.succs.(l) in
    (not pred.marked)
    && (not succ.marked)
    && (match Atomic.get pred.nexts.(l) with Some x -> x == sc.succs.(l) | None -> false)

  let random_top (ctx : ctx) =
    let rec toss l = if l < ctx.st.levels - 1 && Rng.bool ctx.loc.rng then toss (l + 1) else l in
    toss 0

  (* NBR write set: the distinct preds plus the victim/new-node targets.
     Bounded by levels + 2 <= max_hp. *)
  let write_set sc top extra =
    let nodes = ref extra in
    for l = top downto 0 do
      if l = 0 || sc.preds.(l) != sc.preds.(l - 1) then nodes := sc.preds.(l) :: !nodes
    done;
    Array.of_list !nodes

  let insert (ctx : ctx) key =
    Common.with_op ctx.h (fun a ->
        let rec attempt a =
          let sc = ctx.loc in
          let lfound = find ctx a key in
          if lfound >= 0 then begin
            let c = pl sc.succs.(lfound) in
            if c.marked then
              (* A deletion is in flight; retry until it is unlinked. *)
              attempt (T.reopen_op a)
            else begin
              (* Wait for the concurrent inserter to finish linking. *)
              let b = Backoff.make () in
              while not c.fully_linked do
                T.poll a;
                Backoff.once b
              done;
              false
            end
          end
          else begin
            let top = random_top ctx in
            let w = T.enter_write_phase a (write_set sc top []) in
            lock_preds sc w top;
            let valid = ref true in
            for l = 0 to top do
              if not (valid_level sc l) then valid := false
            done;
            if not !valid then begin
              unlock_preds sc top;
              attempt (T.reopen_op w)
            end
            else begin
              let n = T.alloc w in
              let p = pl n in
              n.Heap.key <- key;
              p.top <- top;
              p.marked <- false;
              p.fully_linked <- false;
              for l = 0 to top do
                Atomic.set p.nexts.(l) (Some sc.succs.(l))
              done;
              for l = 0 to top do
                Atomic.set (pl sc.preds.(l)).nexts.(l) (Some n)
              done;
              p.fully_linked <- true;
              unlock_preds sc top;
              true
            end
          end
        in
        attempt a)

  (* Second phase of a delete whose pred validation failed after the
     victim was already marked (the linearization point): re-find and
     unlink the same victim. Nothing after the mark may restart the
     enclosing operation, so an NBR neutralization during the re-find is
     caught here and only this phase retries — re-entering through
     [start_op] to get a fresh active handle, since the raised [Restart]
     aborted the operation in flight. *)
  let rec retry_unlink (ctx : ctx) a victim =
    match unlink_attempt ctx a victim with
    | done_ -> done_
    | exception Smr_typed.Restart -> retry_unlink ctx (T.start_op ctx.h) victim

  and unlink_attempt (ctx : ctx) a victim =
    let sc = ctx.loc in
    let v = pl victim in
    let key = victim.Heap.key in
    ignore (find ctx a key);
    (* The preds computed for the victim's key are exactly its
       predecessors while it remains linked. *)
    let w = T.enter_write_phase a (write_set sc v.top [ victim ]) in
    Common.lock_serving w v.lock;
    let top = v.top in
    lock_preds sc w top;
    let valid = ref true in
    for l = 0 to top do
      let pred = pl sc.preds.(l) in
      if
        pred.marked
        || (match Atomic.get pred.nexts.(l) with Some x -> x != victim | None -> true)
      then valid := false
    done;
    if not !valid then begin
      unlock_preds sc top;
      Spinlock.unlock v.lock;
      unlink_attempt ctx (T.reopen_op w) victim
    end
    else begin
      for l = top downto 0 do
        Atomic.set (pl sc.preds.(l)).nexts.(l) (Atomic.get v.nexts.(l))
      done;
      unlock_preds sc top;
      Spinlock.unlock v.lock;
      T.retire w victim;
      true
    end

  let delete (ctx : ctx) key =
    Common.with_op ctx.h (fun a ->
        let attempt a =
          let sc = ctx.loc in
          let lfound = find ctx a key in
          if lfound < 0 then false
          else begin
            let victim = sc.succs.(lfound) in
            let v = pl victim in
            if not (v.fully_linked && v.top = lfound && not v.marked) then false
            else begin
              let w = T.enter_write_phase a (write_set sc v.top [ victim ]) in
              Common.lock_serving w v.lock;
              if v.marked then begin
                Spinlock.unlock v.lock;
                false
              end
              else begin
                v.marked <- true;
                let top = v.top in
                lock_preds sc w top;
                let valid = ref true in
                for l = 0 to top do
                  let pred = pl sc.preds.(l) in
                  if
                    pred.marked
                    ||
                    match Atomic.get pred.nexts.(l) with
                    | Some x -> x != victim
                    | None -> true
                  then valid := false
                done;
                if not !valid then begin
                  unlock_preds sc top;
                  (* The victim stays marked: finish the removal after a
                     fresh find (it will still be found via lower
                     levels until unlinked; we must not abandon it). *)
                  Spinlock.unlock v.lock;
                  retry_unlink ctx (T.reopen_op w) victim
                end
                else begin
                  for l = top downto 0 do
                    Atomic.set (pl sc.preds.(l)).nexts.(l) (Atomic.get v.nexts.(l))
                  done;
                  unlock_preds sc top;
                  Spinlock.unlock v.lock;
                  T.retire w victim;
                  true
                end
              end
            end
          end
        in
        attempt a)

  (* The reservation both [stall] and [crash] hold: a protected read of
     the structure's first pointer, never written back, so the set's
     contents are unaffected however long it stays pinned. *)
  let pin (ctx : ctx) a = ignore (T.read a ctx.sl.(0) (pl ctx.st.head).nexts.(0) proj)

  let stall = Common.stall pin

  let crash = Common.crash pin

  let iter_seq (s : t) f =
    let rec go n =
      let p = pl n in
      if n.Heap.key <> max_int then begin
        if (not p.marked) && n.Heap.key <> min_int then f n.Heap.key;
        go (proj (Atomic.get p.nexts.(0)))
      end
    in
    go s.st.head

  let size_seq = Ds_common.size_seq iter_seq

  let keys_seq = Ds_common.keys_seq iter_seq

  let check_invariants (s : t) =
    let { head; levels } = s.st in
    (* Bottom level: strictly ascending, all live, unmarked, unlocked,
       fully linked. Upper levels: sublists of the level below. *)
    let rec check_level l n prev_key =
      let p = pl n in
      if not (Heap.is_live n) then failwith "skip_list: freed node still linked";
      if l = 0 then begin
        if p.marked then failwith "skip_list: marked node still linked";
        if not p.fully_linked then failwith "skip_list: partially linked node at rest";
        if Spinlock.is_locked p.lock then failwith "skip_list: node left locked"
      end;
      let k = n.Heap.key in
      if k <= prev_key && k <> min_int then failwith "skip_list: keys not ascending";
      if p.top < l then failwith "skip_list: node linked above its top level";
      if k <> max_int then check_level l (proj (Atomic.get p.nexts.(l))) k
    in
    for l = 0 to levels - 1 do
      check_level l head min_int
    done;
    (* Every upper-level key appears at the bottom. *)
    let bottom = Hashtbl.create 256 in
    iter_seq s (fun k -> Hashtbl.replace bottom k ());
    let mem k = Hashtbl.mem bottom k in
    for l = 1 to levels - 1 do
      let rec walk n =
        let p = pl n and k = n.Heap.key in
        if k <> max_int then begin
          if k <> min_int && (not p.marked) && not (mem k) then
            failwith "skip_list: upper-level key missing from bottom level";
          walk (proj (Atomic.get p.nexts.(l)))
        end
      in
      walk head
    done
end
