open Pop_runtime
module Heap = Pop_sim.Heap

type pass = Plain | Pop

(* Retire buffers are Blelloch–Wei segmented lists: fixed-size blocks of
   [Smr_config.segment_size] slots, singly linked head→tail. Slots at or
   beyond [len] always hold the engine's sentinel [dummy], so a block's
   backing array never pins a freed or drained node. Every buffer
   operation the hot paths need — push, whole-list hand-off, prefix
   advance — is O(1) in nodes; only filtering touches node contents,
   and only for the blocks it must examine. *)
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

(* The block-level verdict: what one probe against a block's stamps
   decided about all of its nodes at once. It must agree with the pass's
   per-node [keep], which [Scan_block] falls back to. *)
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
  mutable scanned : int;
      (* Blocks [vet] has settled in the current pass: the pass's
         [max_scan_blocks] sample. *)
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
    scanned = 0;
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
   probe free a reserved node. Checked against the block's stamps as
   they stood before the pass touched it ([lo] = [min_birth], [hi] =
   [max_retire]), on every path that already reads the node, so the
   audit costs two compares, never an extra traversal. *)
let check_stamp l ~lo ~hi (n : 'a Heap.node) =
  if n.Heap.birth_era < lo || n.Heap.retire_era > hi then
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

(* Link [b] at [bl]'s tail through [cell], which must be [Some b]: a
   block relinked by [vet] reuses the cell that held it, so moving a
   block allocates nothing. *)
let append_block bl b cell =
  b.next <- None;
  (match bl.tail with None -> bl.head <- cell | Some t -> t.next <- cell);
  bl.tail <- cell;
  bl.blocks <- bl.blocks + 1

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

(* The one block walker every pass uses. Pop up to [n] blocks off
   [src]'s head and settle each by its block verdict. A block-level
   classifier (the era-stamp fast path) may settle a whole block with
   one probe: [Free_block] frees every slot without a per-node keep
   call, [Keep_block] leaves the block untouched (stamps included —
   nothing was removed, so they stay exact). On the [Scan_block]
   fallback survivors compact to the front of their block (counted as
   moves only when a slot actually changes), vacated slots are
   scrubbed and stamps are recomputed over the survivors. Emptied
   blocks are recycled; the rest are relinked to [dst]'s tail, so
   [~src:bl ~dst:bl ~n:bl.blocks] filters [bl] in place, order kept.
   Updates both lists' counts and the pass's [scanned] tally, returns
   the nodes freed, and leaves the global seg-node counter to the
   caller (one batched add per pass). *)
let vet ?block_keep l ~src ~dst ~n keep =
  let freed = ref 0 in
  for _ = 1 to min n src.blocks do
    match src.head with
    | None -> ()
    | Some b as cell ->
        src.head <- b.next;
        (match b.next with None -> src.tail <- None | Some _ -> ());
        src.blocks <- src.blocks - 1;
        src.nodes <- src.nodes - b.len;
        l.scanned <- l.scanned + 1;
        let verdict =
          match block_keep with
          | Some f when b.len > 0 ->
              f ~min_birth:b.min_birth ~max_birth:b.max_birth ~min_retire:b.min_retire
                ~max_retire:b.max_retire
          | _ -> Scan_block
        in
        let kept =
          match verdict with
          | Keep_block ->
              Counters.block_keep l.r.c ~tid:l.tid;
              b.len
          | Free_block ->
              Counters.block_skip l.r.c ~tid:l.tid;
              for i = 0 to b.len - 1 do
                check_stamp l ~lo:b.min_birth ~hi:b.max_retire b.slots.(i)
              done;
              (* The whole block goes back in one call; [recycle_block]
                 scrubs the slots right after, so the segment array never
                 pins the now-pooled nodes. *)
              Heap.free_block l.r.heap ~tid:l.tid ~len:b.len b.slots;
              0
          | Scan_block ->
              let j = ref 0 and d = ref 0 in
              let lo = b.min_birth and hi = b.max_retire in
              reset_stamps b;
              for i = 0 to b.len - 1 do
                let n = b.slots.(i) in
                check_stamp l ~lo ~hi n;
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
              (* The rejected nodes go back as one whole-block call and the
                 scratch is scrubbed behind them: block-granularity hand-off
                 even on the per-node fallback (the smrlint [heap-free-loop]
                 rule pins the absence of per-node free loops). *)
              if !d > 0 then begin
                Heap.free_block l.r.heap ~tid:l.tid ~len:!d l.doomed;
                Array.fill l.doomed 0 !d l.r.dummy
              end;
              !j
        in
        freed := !freed + b.len - kept;
        if kept = 0 then recycle_block l b
        else begin
          Array.fill b.slots kept (b.len - kept) l.r.dummy;
          b.len <- kept;
          append_block dst b cell;
          dst.nodes <- dst.nodes + kept
        end
  done;
  !freed

let vet_all ?block_keep l bl keep = vet ?block_keep l ~src:bl ~dst:bl ~n:bl.blocks keep

let retire l n =
  let bl = l.open_seg in
  let b =
    match bl.tail with
    | Some b when b.len < Array.length b.slots -> b
    | _ ->
        let b = new_block l in
        append_block bl b (Some b);
        b
  in
  b.slots.(b.len) <- n;
  b.len <- b.len + 1;
  stamp_node b n;
  bl.nodes <- bl.nodes + 1;
  l.moves <- l.moves + 1;
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

(* Donate into the donor's own stripe: the only thread that can hold
   this lock against us is an adopter momentarily claiming the stripe,
   so two departing threads never serialize on each other. The donor
   must not skip — its buffer has nowhere else to go — so it takes the
   blocking acquire. *)
let donate l =
  let n = pending l in
  if n > 0 then begin
    let st = l.r.orphans.(l.tid mod Array.length l.r.orphans) in
    Spinlock.lock st.s_lock;
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
      if Atomic.get st.s_count > 0 && Spinlock.try_lock st.s_lock then begin
        let n = st.s_list.nodes in
        splice_blist l.open_seg st.s_list;
        Atomic.set st.s_count 0;
        Spinlock.unlock st.s_lock;
        if n > 0 then begin
          ignore (Atomic.fetch_and_add l.r.orphan_count (-n));
          total := !total + n
        end
      end
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

(* The frame every pass that runs shares: [start_pass] counts the pass
   and starts the clock, [finish_pass] records the pause, the blocks
   [vet] settled, and the frees. Timing covers the whole pass — collect
   included, so a ping-based scheme's handshake wait (and timeout
   fallback) lands in the pause figure the latency report surfaces. *)
let start_pass l kind =
  (match kind with
  | Plain -> Counters.reclaim_pass l.r.c ~tid:l.tid
  | Pop -> Counters.pop_pass l.r.c ~tid:l.tid);
  l.scanned <- 0;
  Clock.now ()

let finish_pass l t0 freed =
  Counters.note_pause l.r.c ~tid:l.tid (int_of_float (Clock.elapsed t0 *. 1e9));
  Counters.note_scan_blocks l.r.c ~tid:l.tid l.scanned;
  Counters.seg_nodes_add l.r.c ~tid:l.tid (-freed);
  Counters.free l.r.c ~tid:l.tid freed;
  freed

(* How many covered blocks a fresh non-forced pass re-vets beyond the
   blocks it adds: a pass whose survivors fill [b] blocks re-vets up to
   [rescan_quota + b] covered ones, so the covered list drains even when
   a scheme's own reservation pins most of every open segment (he-pop's
   era; see EXPERIMENTS.md "What sets he-pop's peak garbage"). 2 is the
   drain rate once the additions stop; the pass stays O(uncovered
   blocks). *)
let rescan_quota = 2

(* [fill] seals the collect into the snapshot; the interval pass reads
   the raw scratch instead. *)
let snapshot_pass ~force ~fill ?block_keep ~kind ~collect ~except ~keep l =
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
    let t0 = start_pass l kind in
    let k = collect l.scratch in
    if fill then begin
      Id_set.fill l.reserved ~except l.scratch k;
      Id_set.seal l.reserved
    end;
    let freed =
      if force then begin
        (* Flush semantics: vet everything, covered included, exactly like
           the seed engine's full compaction — this is what the
           equivalence trace replays compare against. *)
        let freed = vet_all ?block_keep l l.covered keep in
        let freed = freed + vet_all ?block_keep l l.open_seg keep in
        splice_blist l.covered l.open_seg;
        freed
      end
      else begin
        let freed = vet_all ?block_keep l l.open_seg keep in
        (* Re-vet at least as many covered blocks as this pass adds, from
           the youngest: a scheme whose own reservation pins most of the
           open segment (he-pop's era) would otherwise grow the covered
           list by a block per pass and never drain it. The re-vet runs
           before this pass's survivors join, and they join at the head,
           so the next pass re-vets them before any older block: a
           stall's pinned backlog sinks to the tail instead of hiding the
           short-lived survivors behind it. Sound in both directions:
           reservations on retired nodes only disappear, so the newer
           snapshot can only free more, and every survivor is (re-)covered
           by it. *)
        let freed =
          freed
          + vet ?block_keep l ~src:l.covered ~dst:l.covered
              ~n:(rescan_quota + l.open_seg.blocks) keep
        in
        splice_blist l.open_seg l.covered;
        splice_blist l.covered l.open_seg;
        freed
      end
    in
    (* Capture the generation only now: everything published before the
       collect read the table is in this snapshot, so handler bumps
       caused by our own ping round must not mark it stale. *)
    l.snap_gen <- Atomic.get l.r.gen;
    Counters.segment l.r.c ~tid:l.tid;
    finish_pass l t0 freed
  end

let scan ?(force = false) ~kind ~collect ~except ~keep l =
  snapshot_pass ~force ~fill:true ~kind ~collect ~except ~keep l

let scan_plain ~kind ~keep l =
  ignore (adopt l);
  Counters.note_unreclaimed l.r.c ~tid:l.tid;
  let t0 = start_pass l kind in
  (* Epoch-style passes don't use the snapshot: filter both lists in
     place. Filtering only removes nodes, so the covered list stays
     covered by whatever snapshot the cache holds. *)
  let freed = vet_all l l.covered keep in
  finish_pass l t0 (freed + vet_all l l.open_seg keep)

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
let scan_eras ?(force = false) ~kind ~collect ~except l =
  let snap = l.reserved in
  snapshot_pass ~force ~fill:true ~kind ~collect ~except
    ~block_keep:(fun ~min_birth ~max_birth ~min_retire ~max_retire ->
      if not (Id_set.exists_in_range snap ~lo:min_birth ~hi:max_retire) then Free_block
      else if Id_set.exists_in_range snap ~lo:max_birth ~hi:min_retire then Keep_block
      else Scan_block)
    ~keep:(fun n ->
      Id_set.exists_in_range snap ~lo:n.Heap.birth_era ~hi:n.Heap.retire_era)
    l

(* The interval pass (IBR). The scratch holds one [lo; hi] pair per
   thread, positionally, which a sorted set cannot represent, so the
   verdicts read it raw. [meets] asks whether some pair overlaps
   [birth, retire]: a node is kept iff one overlaps its lifespan, and
   the block verdicts ask it of the envelope, as [scan_eras] does —
   none meets [min_birth, max_retire] (free the block), or one meets
   [max_birth, min_retire] and so every node's lifespan (keep it). *)
let scan_intervals ?(force = false) ~kind ~collect l =
  let s = l.scratch and pairs = ref 0 in
  let rec meets i ~birth ~retire =
    i < !pairs
    && ((s.(2 * i) <= retire && birth <= s.((2 * i) + 1)) || meets (i + 1) ~birth ~retire)
  in
  let collect scratch =
    let k = collect scratch in
    pairs := k / 2;
    k
  in
  snapshot_pass ~force ~fill:false ~kind ~collect ~except:0
    ~block_keep:(fun ~min_birth ~max_birth ~min_retire ~max_retire ->
      if not (meets 0 ~birth:min_birth ~retire:max_retire) then Free_block
      else if meets 0 ~birth:max_birth ~retire:min_retire then Keep_block
      else Scan_block)
    ~keep:(fun n -> meets 0 ~birth:n.Heap.birth_era ~retire:n.Heap.retire_era)
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
