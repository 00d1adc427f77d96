open Pop_runtime
module Heap = Pop_sim.Heap

type pass = Plain | Pop

(* Retire buffers are Blelloch–Wei segmented lists: fixed-size blocks of
   [Smr_config.segment_size] slots, singly linked head→tail. Slots at or
   beyond [len] always hold the engine's sentinel [dummy], so a block's
   backing array never pins a freed or drained node (the same scrub discipline
   [Vec.filter_sub] documents). Every buffer operation the hot paths
   need — push, whole-list hand-off, prefix advance — is O(1) in nodes;
   only filtering touches node contents, and only for the blocks it must
   examine. *)
type 'a block = {
  slots : 'a Heap.node array;
  mutable len : int;
  mutable next : 'a block option;
  (* Era stamps: exact min/max of the occupied slots' [birth_era] and
     [retire_era]. Merged on push, recomputed over survivors on filter;
     an empty block carries the identity stamps (min = max_int,
     max = min_int). Splices move blocks wholesale, so stamps travel
     with their block and need no recomputation. The stamps must never
     under-approximate a node's lifespan — a too-narrow [min_birth,
     max_retire] would let the block-level emptiness probe free a
     reserved node — so every path that touches a node re-checks
     containment and counts a [stale_stamps] violation otherwise. *)
  mutable min_birth : int;
  mutable max_birth : int;
  mutable min_retire : int;
  mutable max_retire : int;
}

(* The block-level era verdict: what one [exists_in_range] probe against
   a block's stamps decided about all of its nodes at once. *)
type block_verdict = Free_block | Keep_block | Scan_block

type 'a blist = {
  mutable head : 'a block option;
  mutable tail : 'a block option;
  mutable nodes : int;
  mutable blocks : int;
}

let empty_blist () = { head = None; tail = None; nodes = 0; blocks = 0 }

(* One orphanage stripe: a donor parks its retire-buffer survivors in
   its own stripe, so two departing threads never serialize on the same
   lock, and an adopter claims whole stripes with [try_lock] instead of
   queueing behind a busy one. The per-stripe atomic count gives the
   lock-free empty fast path per stripe; the engine-wide total lives in
   [orphan_count] below. *)
type 'a stripe = {
  s_list : 'a blist;
  s_lock : Spinlock.t;
  s_count : int Atomic.t;
}

type 'a t = {
  heap : 'a Heap.t;
  dummy : 'a Heap.node;
      (* The one heap sentinel every scrubbed slot holds: permanently
         live, so an unused slot never pins a reclaimable node. *)
  c : Counters.t;
  gen : int Atomic.t;
  threshold : int;
  seg_size : int;
  rescan_blocks : int;
  (* The orphanage: retire-buffer survivors of departed threads, parked
     until a surviving thread's next pass adopts them, sharded into one
     stripe per donor tid. Each hand-off direction splices whole block
     lists under a single stripe's lock in O(1), so a departing or
     adopting thread never copies a node and donors on different tids
     never contend. The engine-wide atomic count lets the hot scan path
     skip the stripe walk when there is nothing to adopt anywhere. *)
  orphans : 'a stripe array;
  orphan_count : int Atomic.t;
}

let create (cfg : Smr_config.t) ~heap ~counters =
  {
    heap;
    dummy = Heap.sentinel heap;
    c = counters;
    gen = Atomic.make 0;
    threshold = cfg.reclaim_freq;
    seg_size = cfg.segment_size;
    rescan_blocks = cfg.segment_rescan;
    orphans =
      Array.init cfg.max_threads (fun _ ->
          { s_list = empty_blist (); s_lock = Spinlock.create (); s_count = Atomic.make 0 });
    orphan_count = Atomic.make 0;
  }

let threshold t = t.threshold

let counters t = t.c

let invalidate t = Atomic.incr t.gen

let generation t = Atomic.get t.gen

type 'a local = {
  r : 'a t;
  tid : int;
  covered : 'a blist;
      (* Nodes that already survived a scan against the cached snapshot;
         they stay covered by it forever (see the .mli). The old integer
         [checked] watermark is now simply this list's boundary: a
         cache-served pass has nothing to advance. *)
  open_seg : 'a blist;
      (* The uncovered suffix: fresh retires and adopted orphans. A pass
         goes fresh when this alone reaches the threshold. *)
  mutable free_head : 'a block option;
      (* Per-reclaimer block freelist: fully-freed blocks are scrubbed
         and parked here instead of churning the allocator, mirroring
         [Heap]'s node pooling one level up. *)
  mutable free_len : int;
  reserved : Id_set.t;
  scratch : int array;
  doomed : 'a Heap.node array;
      (* Per-pass partition scratch: [Scan_block] filtering collects the
         non-kept nodes of one block here and frees them with a single
         {!Heap.free_block} call, so even the per-node fallback path
         issues no per-node frees. Capacity is one segment block;
         scrubbed back to the sentinel after every flush so it never
         pins a freed node. *)
  mutable snap_gen : int;
      (* Generation observed when the snapshot was collected; -1 before
         the first fresh pass. *)
  mutable moves : int;
      (* Node copies this local has ever performed (pushes, compactions,
         drains). Donate/adopt must not change it: the O(1) hand-off
         claim is testable as [node_moves] staying flat across a splice. *)
  mutable adopt_cursor : int;
      (* The orphanage stripe this local's next adoption starts from.
         Seeded with the tid and advanced per adopt, so concurrent
         adopters tend to start on distinct stripes instead of racing
         for stripe 0 and falling over each other's locks. *)
}

let register r ~tid ~scratch_slots =
  {
    r;
    tid;
    covered = empty_blist ();
    open_seg = empty_blist ();
    free_head = None;
    free_len = 0;
    reserved = Id_set.create ~capacity:scratch_slots;
    scratch = Array.make (max 1 scratch_slots) 0;
    doomed = Array.make (max 1 r.seg_size) r.dummy;
    snap_gen = -1;
    moves = 0;
    adopt_cursor = tid mod Array.length r.orphans;
  }

let node_moves l = l.moves

let free_blocks l = l.free_len

let reset_stamps b =
  b.min_birth <- max_int;
  b.max_birth <- min_int;
  b.min_retire <- max_int;
  b.max_retire <- min_int

let stamp_node b (n : 'a Heap.node) =
  if n.Heap.birth_era < b.min_birth then b.min_birth <- n.Heap.birth_era;
  if n.Heap.birth_era > b.max_birth then b.max_birth <- n.Heap.birth_era;
  if n.Heap.retire_era < b.min_retire then b.min_retire <- n.Heap.retire_era;
  if n.Heap.retire_era > b.max_retire then b.max_retire <- n.Heap.retire_era

(* A node whose lifespan escapes its block's stamps is the stamp-
   maintenance bug the SmrSan stale-stamp check reports: a too-narrow
   [min_birth, max_retire] could have let the block-level emptiness
   probe free a reserved node. Checked on every path that already
   touches the node (filters, wholesale frees), so the audit costs two
   compares, never an extra traversal. *)
let check_stamp l b (n : 'a Heap.node) =
  if n.Heap.birth_era < b.min_birth || n.Heap.retire_era > b.max_retire then
    Counters.stale_stamp l.r.c ~tid:l.tid

(* Pop the freelist or allocate; unused slots hold the engine's dummy. *)
let new_block l =
  let b =
    match l.free_head with
    | Some b ->
        l.free_head <- b.next;
        l.free_len <- l.free_len - 1;
        b.next <- None;
        b
    | None ->
        {
          slots = Array.make l.r.seg_size l.r.dummy;
          len = 0;
          next = None;
          min_birth = max_int;
          max_birth = min_int;
          min_retire = max_int;
          max_retire = min_int;
        }
  in
  Counters.seg_slots_add l.r.c ~tid:l.tid l.r.seg_size;
  b

(* Scrub the occupied prefix (slots past [len] are the dummy already, by
   the block invariant) and park the block on the freelist. *)
let recycle_block l b =
  Array.fill b.slots 0 b.len l.r.dummy;
  b.len <- 0;
  reset_stamps b;
  b.next <- l.free_head;
  l.free_head <- Some b;
  l.free_len <- l.free_len + 1;
  Counters.seg_slots_add l.r.c ~tid:l.tid (-l.r.seg_size);
  Counters.segment_recycle l.r.c ~tid:l.tid

(* Free the first [d] nodes parked in the doomed scratch as one
   whole-block call and scrub the scratch behind them. This is the only
   way engine filtering returns nodes to the heap: block-granularity
   hand-off even on the per-node [Scan_block] fallback (the smrlint
   [heap-free-loop] rule pins the absence of per-node free loops). *)
let flush_doomed l d =
  if d > 0 then begin
    Heap.free_block l.r.heap ~tid:l.tid ~len:d l.doomed;
    Array.fill l.doomed 0 d l.r.dummy
  end

let append_block bl b =
  b.next <- None;
  (match bl.tail with None -> bl.head <- Some b | Some t -> t.next <- Some b);
  bl.tail <- Some b;
  bl.blocks <- bl.blocks + 1

let push_node l bl n =
  let b =
    match bl.tail with
    | Some b when b.len < Array.length b.slots -> b
    | _ ->
        let b = new_block l in
        append_block bl b;
        b
  in
  b.slots.(b.len) <- n;
  b.len <- b.len + 1;
  stamp_node b n;
  bl.nodes <- bl.nodes + 1;
  l.moves <- l.moves + 1

(* O(1) whole-list hand-off: relink [src]'s chain onto [dst]'s tail and
   transfer the counts. No node is copied — this is what makes donate,
   adopt and the fresh pass's open→covered promotion constant-time. *)
let splice_blist dst src =
  match src.head with
  | None -> ()
  | Some h ->
      (match dst.tail with None -> dst.head <- Some h | Some t -> t.next <- Some h);
      dst.tail <- src.tail;
      dst.nodes <- dst.nodes + src.nodes;
      dst.blocks <- dst.blocks + src.blocks;
      src.head <- None;
      src.tail <- None;
      src.nodes <- 0;
      src.blocks <- 0

(* Free the non-kept nodes of [bl], block by block. A block-level
   classifier (the era-stamp fast path) may settle a whole block with
   one probe: [Free_block] frees every slot without a per-node keep
   call, [Keep_block] leaves the block untouched (stamps included —
   nothing was removed, so they stay exact). On the [Scan_block]
   fallback survivors compact to the front of their block (counted as
   moves only when a slot actually changes), vacated slots are
   scrubbed, stamps are recomputed over the survivors, and
   fully-emptied blocks are unlinked and recycled. Updates [bl]'s
   counts but leaves the global seg-node counter to the caller (one
   batched add per pass). *)
let filter_blist ?block_keep l bl keep =
  let freed = ref 0 in
  let verdict b =
    match block_keep with
    | None -> Scan_block
    | Some f when b.len > 0 ->
        f ~min_birth:b.min_birth ~max_birth:b.max_birth ~min_retire:b.min_retire
          ~max_retire:b.max_retire
    | Some _ -> Scan_block
  in
  let rec walk prev cur =
    match cur with
    | None -> ()
    | Some b -> (
        match verdict b with
        | Keep_block ->
            Counters.block_keep l.r.c ~tid:l.tid;
            walk cur b.next
        | Free_block ->
            Counters.block_skip l.r.c ~tid:l.tid;
            for i = 0 to b.len - 1 do
              check_stamp l b b.slots.(i)
            done;
            (* The whole block goes back in one call; [recycle_block]
               scrubs the slots right after, so the segment array never
               pins the now-pooled nodes. *)
            Heap.free_block l.r.heap ~tid:l.tid ~len:b.len b.slots;
            freed := !freed + b.len;
            let next = b.next in
            (match prev with None -> bl.head <- next | Some p -> p.next <- next);
            (match next with None -> bl.tail <- prev | Some _ -> ());
            bl.blocks <- bl.blocks - 1;
            recycle_block l b;
            walk prev next
        | Scan_block ->
            let j = ref 0 in
            let d = ref 0 in
            let saved_min_birth = b.min_birth and saved_max_retire = b.max_retire in
            reset_stamps b;
            for i = 0 to b.len - 1 do
              let n = b.slots.(i) in
              if n.Heap.birth_era < saved_min_birth || n.Heap.retire_era > saved_max_retire
              then Counters.stale_stamp l.r.c ~tid:l.tid;
              if keep n then begin
                if !j <> i then begin
                  b.slots.(!j) <- n;
                  l.moves <- l.moves + 1
                end;
                stamp_node b n;
                incr j
              end
              else begin
                l.doomed.(!d) <- n;
                incr d
              end
            done;
            flush_doomed l !d;
            freed := !freed + !d;
            Array.fill b.slots !j (b.len - !j) l.r.dummy;
            b.len <- !j;
            let next = b.next in
            if !j = 0 then begin
              (match prev with None -> bl.head <- next | Some p -> p.next <- next);
              (match next with None -> bl.tail <- prev | Some _ -> ());
              bl.blocks <- bl.blocks - 1;
              recycle_block l b;
              walk prev next
            end
            else walk cur next)
  in
  walk None bl.head;
  bl.nodes <- bl.nodes - !freed;
  !freed

let retire l n =
  push_node l l.open_seg n;
  Counters.seg_nodes_add l.r.c ~tid:l.tid 1;
  Counters.retire l.r.c ~tid:l.tid

let retire_leak l (_ : 'a Heap.node) = Counters.retire l.r.c ~tid:l.tid

let retire_now l n =
  Counters.retire l.r.c ~tid:l.tid;
  Heap.free l.r.heap ~tid:l.tid n;
  Counters.free l.r.c ~tid:l.tid 1

let free_unpublished l n = Heap.free l.r.heap ~tid:l.tid n

(* Hyaline's batch release: the drained array goes back to the heap as
   one whole-block call, not [Array.length] per-node frees. *)
let free_array l nodes =
  Heap.free_block l.r.heap ~tid:l.tid nodes;
  Counters.free l.r.c ~tid:l.tid (Array.length nodes)

let pending l = l.covered.nodes + l.open_seg.nodes

let is_empty l = pending l = 0

let due l = pending l >= l.r.threshold

let snapshot l = l.reserved

let raw l = l.scratch

(* Donate into the donor's own stripe: the only thread that can hold
   this lock against us is an adopter momentarily claiming the stripe,
   so a failed [try_lock] is genuine cross-thread contention (counted)
   and two departing threads never serialize on each other. The donor
   must not skip — its buffer has nowhere else to go — so it falls back
   to the blocking acquire. *)
let donate l =
  let n = pending l in
  if n > 0 then begin
    let st = l.r.orphans.(l.tid mod Array.length l.r.orphans) in
    if not (Spinlock.try_lock st.s_lock) then begin
      Counters.orphan_stripe_contention l.r.c ~tid:l.tid;
      Spinlock.lock st.s_lock
    end;
    splice_blist st.s_list l.covered;
    splice_blist st.s_list l.open_seg;
    Atomic.set st.s_count st.s_list.nodes;
    Spinlock.unlock st.s_lock;
    ignore (Atomic.fetch_and_add l.r.orphan_count n);
    Counters.orphan_donate l.r.c ~tid:l.tid n
  end

let orphans_pending r = Atomic.get r.orphan_count

(* Splice every claimable parked orphan block onto [l]'s open segment.
   Landing past the covered prefix means the covered invariant needs no
   adjustment and the next fresh pass vets the adoptees against a
   snapshot collected after their donors left. Stripes are walked
   round-robin from a per-local cursor, empty ones are skipped on their
   atomic count without touching the lock, and a stripe whose lock is
   held (a donor mid-donate, or another adopter) is skipped rather than
   waited on — its holder's successor pass will claim it, and the
   engine-wide count keeps it visible until then. Exactly-once is per
   stripe: a claim zeroes the stripe under its lock. O(stripes) atomic
   reads, O(1) splices, no node is read. *)
let adopt l =
  if Atomic.get l.r.orphan_count = 0 then 0
  else begin
    let stripes = l.r.orphans in
    let ns = Array.length stripes in
    let total = ref 0 in
    for i = 0 to ns - 1 do
      let st = stripes.((l.adopt_cursor + i) mod ns) in
      if Atomic.get st.s_count > 0 then
        if Spinlock.try_lock st.s_lock then begin
          let n = st.s_list.nodes in
          splice_blist l.open_seg st.s_list;
          Atomic.set st.s_count 0;
          Spinlock.unlock st.s_lock;
          if n > 0 then begin
            ignore (Atomic.fetch_and_add l.r.orphan_count (-n));
            total := !total + n
          end
        end
        else Counters.orphan_stripe_contention l.r.c ~tid:l.tid
    done;
    l.adopt_cursor <- (l.adopt_cursor + 1) mod ns;
    if !total > 0 then Counters.orphan_adopt l.r.c ~tid:l.tid !total;
    !total
  end

let take_all l =
  ignore (adopt l);
  Counters.note_unreclaimed l.r.c ~tid:l.tid;
  let total = pending l in
  let out = Array.make total l.r.dummy in
  let k = ref 0 in
  let drain bl =
    let cur = ref bl.head in
    let continue_ = ref true in
    while !continue_ do
      match !cur with
      | None -> continue_ := false
      | Some b ->
          for i = 0 to b.len - 1 do
            out.(!k) <- b.slots.(i);
            incr k;
            l.moves <- l.moves + 1
          done;
          let next = b.next in
          bl.blocks <- bl.blocks - 1;
          recycle_block l b;
          cur := next
    done;
    bl.head <- None;
    bl.tail <- None;
    bl.nodes <- 0
  in
  drain l.covered;
  drain l.open_seg;
  Counters.seg_nodes_add l.r.c ~tid:l.tid (-total);
  out

let note_skip l =
  Counters.note_unreclaimed l.r.c ~tid:l.tid;
  Counters.scan_skip l.r.c ~tid:l.tid

let count_pass l = function
  | Plain -> Counters.reclaim_pass l.r.c ~tid:l.tid
  | Pop -> Counters.pop_pass l.r.c ~tid:l.tid

(* Pop up to [quota] blocks that were covered *before* this pass spliced
   its open segment in, and re-vet their nodes against the snapshot just
   collected. Sound in both directions: reservations on retired nodes
   only disappear, so the newer snapshot can only free more, and every
   survivor is (re-)covered by it. This bounds how stale covered garbage
   can get without giving up the pass's O(uncovered blocks) cost. *)
let rescan_covered ?block_keep l ~quota ~keep ~freed ~touched =
  for _ = 1 to quota do
    match l.covered.head with
    | None -> ()
    | Some b ->
        let next = b.next in
        l.covered.head <- next;
        (match next with None -> l.covered.tail <- None | Some _ -> ());
        l.covered.blocks <- l.covered.blocks - 1;
        l.covered.nodes <- l.covered.nodes - b.len;
        incr touched;
        let verdict =
          match block_keep with
          | Some f when b.len > 0 ->
              f ~min_birth:b.min_birth ~max_birth:b.max_birth ~min_retire:b.min_retire
                ~max_retire:b.max_retire
          | _ -> Scan_block
        in
        (match verdict with
        | Keep_block ->
            (* Still covered in full: relink the block to the covered
               tail without reading a node (stamps travel with it). *)
            Counters.block_keep l.r.c ~tid:l.tid;
            append_block l.covered b;
            l.covered.nodes <- l.covered.nodes + b.len
        | Free_block ->
            Counters.block_skip l.r.c ~tid:l.tid;
            for i = 0 to b.len - 1 do
              check_stamp l b b.slots.(i)
            done;
            Heap.free_block l.r.heap ~tid:l.tid ~len:b.len b.slots;
            freed := !freed + b.len;
            recycle_block l b
        | Scan_block ->
            let d = ref 0 in
            for i = 0 to b.len - 1 do
              let n = b.slots.(i) in
              check_stamp l b n;
              if keep n then push_node l l.covered n
              else begin
                l.doomed.(!d) <- n;
                incr d
              end
            done;
            flush_doomed l !d;
            freed := !freed + !d;
            recycle_block l b)
  done

let scan ?(force = false) ?(fill = true) ?block_keep ~kind ~collect ~except ~keep l =
  (* Adopt before deciding whether the cache can answer: orphans join
     the open segment and count toward the fresh-pass trigger, so a
     departed thread's garbage is vetted by whichever survivor scans
     next instead of waiting for the adopter's own retires. *)
  ignore (adopt l);
  Counters.note_unreclaimed l.r.c ~tid:l.tid;
  let gen = Atomic.get l.r.gen in
  if (not force) && l.snap_gen = gen && l.open_seg.nodes < l.r.threshold then begin
    (* Served from the cache: the covered list already survived this
       very snapshot (rescanning it cannot free anything — reservations
       on unreachable nodes only disappear, and a disappearance would
       have bumped nothing we can observe without re-collecting), and
       the open segment may only be freed against a fresh collect. With
       block lists the covered watermark is the list boundary itself,
       so there is nothing to advance: O(1) flat, instead of the seed's
       O(T×H + n log n + n) pass. *)
    Counters.snapshot_reuse l.r.c ~tid:l.tid;
    Counters.scan_skip l.r.c ~tid:l.tid;
    0
  end
  else begin
    count_pass l kind;
    (* Time the whole fresh pass — collect included, so a ping-based
       scheme's handshake wait (and timeout fallback) lands in the
       pause figure the latency report surfaces. *)
    let t0 = Clock.now () in
    let k = collect l.scratch in
    if fill then begin
      Id_set.fill l.reserved ~except l.scratch k;
      Id_set.seal l.reserved
    end;
    let freed = ref 0 and touched = ref 0 in
    if force then begin
      (* Flush semantics: vet everything, covered included, exactly like
         the seed engine's full compaction — this is what the
         equivalence trace replays compare against. *)
      touched := l.covered.blocks + l.open_seg.blocks;
      freed := filter_blist ?block_keep l l.covered keep;
      freed := !freed + filter_blist ?block_keep l l.open_seg keep;
      splice_blist l.covered l.open_seg
    end
    else begin
      touched := l.open_seg.blocks;
      freed := filter_blist ?block_keep l l.open_seg keep;
      let old_covered = l.covered.blocks and spliced = l.open_seg.blocks in
      splice_blist l.covered l.open_seg;
      (* Re-vet at least as many covered blocks as this pass adds: a
         scheme whose own reservation pins most of the open segment
         (he-pop's era) would otherwise grow the covered list by
         [spliced - rescan_blocks] blocks per pass and never drain it. *)
      rescan_covered ?block_keep l
        ~quota:(min (l.r.rescan_blocks + spliced) old_covered)
        ~keep ~freed ~touched
    end;
    (* Capture the generation only now: everything published before the
       collect read the table is in this snapshot, so handler bumps
       caused by our own ping round must not mark it stale. *)
    l.snap_gen <- Atomic.get l.r.gen;
    Counters.note_pause l.r.c ~tid:l.tid (int_of_float (Clock.elapsed t0 *. 1e9));
    Counters.note_scan_blocks l.r.c ~tid:l.tid !touched;
    Counters.seg_nodes_add l.r.c ~tid:l.tid (- !freed);
    Counters.segment l.r.c ~tid:l.tid;
    Counters.free l.r.c ~tid:l.tid !freed;
    !freed
  end

let scan_plain ~kind ~keep l =
  ignore (adopt l);
  Counters.note_unreclaimed l.r.c ~tid:l.tid;
  count_pass l kind;
  let t0 = Clock.now () in
  (* Epoch-style passes don't use the snapshot: filter both lists in
     place. Filtering only removes nodes, so the covered list stays
     covered by whatever snapshot the cache holds. *)
  let touched = l.covered.blocks + l.open_seg.blocks in
  let freed = filter_blist l l.covered keep in
  let freed = freed + filter_blist l l.open_seg keep in
  Counters.note_pause l.r.c ~tid:l.tid (int_of_float (Clock.elapsed t0 *. 1e9));
  Counters.note_scan_blocks l.r.c ~tid:l.tid touched;
  Counters.seg_nodes_add l.r.c ~tid:l.tid (-freed);
  Counters.free l.r.c ~tid:l.tid freed;
  freed

(* The era-interval pass, owned by the engine so schemes never probe
   the snapshot per node themselves (the smrlint [era-per-node] rule
   pins this). One [exists_in_range] against a block's stamps settles
   the whole block whenever it can:

   - no reserved era in [min_birth, max_retire] — every node's lifespan
     is inside that envelope, so none is reserved: free the block;
   - some reserved era in [max_birth, min_retire] — that era lies
     inside every node's lifespan: keep the block untouched (when
     [max_birth > min_retire] the nodes share no common era and the
     probe is vacuously false);
   - otherwise inconclusive: fall back to per-node probes against the
     same snapshot, hoisted once per pass rather than re-fetched per
     retired node. *)
let scan_eras ?force ~kind ~collect ~except l =
  let snap = l.reserved in
  scan ?force ~kind ~collect ~except
    ~block_keep:(fun ~min_birth ~max_birth ~min_retire ~max_retire ->
      if not (Id_set.exists_in_range snap ~lo:min_birth ~hi:max_retire) then Free_block
      else if Id_set.exists_in_range snap ~lo:max_birth ~hi:min_retire then Keep_block
      else Scan_block)
    ~keep:(fun n ->
      Id_set.exists_in_range snap ~lo:n.Heap.birth_era ~hi:n.Heap.retire_era)
    l

(* Test-facing audit: walk both lists and count blocks whose stamps are
   not the exact min/max over their occupied slots. The engine keeps
   stamps exact (push merges, filter recomputes, keep-whole-block
   removes nothing), so any nonzero answer is a maintenance bug —
   either direction: a too-narrow envelope can free a reserved node, a
   too-wide one only costs fast-path hits but signals drift all the
   same. *)
let debug_stamp_errors l =
  let errors = ref 0 in
  let check_list bl =
    let rec walk = function
      | None -> ()
      | Some b ->
          let min_b = ref max_int and max_b = ref min_int in
          let min_r = ref max_int and max_r = ref min_int in
          for i = 0 to b.len - 1 do
            let n = b.slots.(i) in
            if n.Heap.birth_era < !min_b then min_b := n.Heap.birth_era;
            if n.Heap.birth_era > !max_b then max_b := n.Heap.birth_era;
            if n.Heap.retire_era < !min_r then min_r := n.Heap.retire_era;
            if n.Heap.retire_era > !max_r then max_r := n.Heap.retire_era
          done;
          if
            b.min_birth <> !min_b || b.max_birth <> !max_b || b.min_retire <> !min_r
            || b.max_retire <> !max_r
          then incr errors;
          walk b.next
    in
    walk bl.head
  in
  check_list l.covered;
  check_list l.open_seg;
  !errors
