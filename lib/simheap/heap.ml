open Pop_runtime

(* The fields a hop reads ([seq], [key], [payload]) sit right after the
   header, so a hop touches only the node's first words. *)
type 'a node = {
  id : int;
  mutable seq : int;
  mutable key : int;
  payload : 'a;
  mutable birth_era : int;
  mutable retire_era : int;
  mutable free_next : 'a node;
}

(* A pool block: an intrusive chain of exactly [bh_count] free nodes
   linked through [free_next], handed between threads whole. The handle
   is immutable; ownership transfers with the handle, so a block is
   never mutated while shared. Chains are counted, never walked to
   their end, so the link past a chain's last node is never read. *)
type 'a hblock = { bh_head : 'a node; bh_count : int }

(* Per-thread allocation pool (Blelloch–Wei): at most two blocks of
   free nodes live here, an active chain popped by [alloc] and filled
   by [free], plus a spare. When both are full a free detaches the
   spare as a whole [hblock] and pushes it to the shared pool in O(1);
   when both are empty an alloc grabs a whole block back. All fields
   are written only by the owning thread; the sampler reads the
   counters racily, which is fine for monitoring. *)
type 'a pool = {
  mutable a_head : 'a node;  (* active chain; read only while [a_count > 0] *)
  mutable a_count : int;
  mutable s_head : 'a node;  (* spare chain; read only while [s_count > 0] *)
  mutable s_count : int;
  mutable allocs : int;
  mutable frees : int;
  mutable grabs : int;  (* whole blocks popped from the shared pool *)
  mutable returns : int;  (* whole blocks pushed to the shared pool *)
  mutable bulk_freed : int;  (* nodes freed through [free_block] *)
  mutable node_frees : int;  (* per-node [free] API calls *)
  mutable next_id : int;
  (* Padding out to cache-line multiples: every field above is bumped
     by its owner on the allocation hot path; neighbouring pools must
     not share a line. *)
  mutable pad0 : int;
  mutable pad1 : int;
  mutable pad2 : int;
  mutable pad3 : int;
}

type 'a t = {
  pools : 'a pool array;
  payload : int -> 'a;
  nil : 'a node;  (* empty chains' head and fresh nodes' link; never live *)
  max_threads : int;
  block_size : int;
  (* Shared block pool: a Treiber stack of block handles. Every push
     conses a fresh cell and popped cells are never re-pushed, so the
     physical-equality CAS cannot suffer ABA even when the same nodes
     circulate back. *)
  shared : 'a hblock list Atomic.t;
  shared_blocks : Striped.t;  (* length 1: maintained shared-pool size *)
  (* Error accounting lives in [Striped] cells so the atomics sit on
     their own cache lines: a UAF burst on one thread must not bounce
     the line under another thread's double-free check or sentinel
     creation (they used to be three adjacent heap words). *)
  uaf : Striped.t;  (* length 1: [check_access] has no tid *)
  double_free : Striped.t;  (* per-tid stripes *)
  sentinel_id : Striped.t;  (* length 1: next (negative) sentinel id *)
}

let default_block_size = 64

(* [free_next] needs no [option], so a free allocates nothing: a fresh
   node links to [nil] until a free chains it. *)
let make_node ~id ~seq ~nil payload =
  { id; seq; key = 0; payload; birth_era = 0; retire_era = max_int; free_next = nil }

let create ?(block_size = default_block_size) ~max_threads ~payload () =
  if block_size <= 0 then invalid_arg "Heap.create: block_size must be positive";
  (* Self-linked, and built once per heap: a recursive record costs a C
     call, so fresh nodes link here rather than to themselves. Odd
     [seq], so a stray dereference counts as a use-after-free. *)
  let rec nil =
    { id = min_int; seq = 1; key = 0; payload = payload min_int; birth_era = 0;
      retire_era = max_int; free_next = nil }
  in
  let pools =
    Array.init max_threads (fun tid ->
        {
          a_head = nil;
          a_count = 0;
          s_head = nil;
          s_count = 0;
          allocs = 0;
          frees = 0;
          grabs = 0;
          returns = 0;
          bulk_freed = 0;
          node_frees = 0;
          next_id = tid;
          pad0 = 0;
          pad1 = 0;
          pad2 = 0;
          pad3 = 0;
        })
  in
  let sentinel_id = Striped.create 1 in
  Striped.set sentinel_id 0 (-1);
  {
    pools;
    payload;
    nil;
    max_threads;
    block_size;
    shared = Atomic.make [];
    shared_blocks = Striped.create 1;
    uaf = Striped.create 1;
    double_free = Striped.create max_threads;
    sentinel_id;
  }

let block_size t = t.block_size

let fresh t pool =
  let id = pool.next_id in
  pool.next_id <- id + t.max_threads;
  make_node ~id ~seq:0 ~nil:t.nil (t.payload id)

let rec push_shared t hb =
  let old = Atomic.get t.shared in
  if Atomic.compare_and_set t.shared old (hb :: old) then Striped.add t.shared_blocks 0 1
  else push_shared t hb

let rec pop_shared t =
  match Atomic.get t.shared with
  | [] -> None
  | hb :: tl as old ->
      if Atomic.compare_and_set t.shared old tl then begin
        Striped.add t.shared_blocks 0 (-1);
        Some hb
      end
      else pop_shared t

(* Refill the active chain: promote the spare (O(1) swap) or grab a
   whole block from the shared pool. Leaves the active chain empty only
   when the shared pool is empty too, in which case the caller mints a
   fresh node. *)
let refill t pool =
  if pool.s_count > 0 then begin
    pool.a_head <- pool.s_head;
    pool.a_count <- pool.s_count;
    pool.s_count <- 0
  end
  else
    match pop_shared t with
    | None -> ()
    | Some hb ->
        pool.a_head <- hb.bh_head;
        pool.a_count <- hb.bh_count;
        pool.grabs <- pool.grabs + 1

let alloc t ~tid ~birth_era =
  let pool = t.pools.(tid) in
  pool.allocs <- pool.allocs + 1;
  if pool.a_count = 0 then refill t pool;
  let n =
    if pool.a_count = 0 then fresh t pool
    else begin
      (* [n.free_next] is left stale: nothing reads a live node's link. *)
      let n = pool.a_head in
      pool.a_head <- n.free_next;
      pool.a_count <- pool.a_count - 1;
      assert (n.seq land 1 = 1);
      n.seq <- n.seq + 1;
      n
    end
  in
  n.birth_era <- birth_era;
  n.retire_era <- max_int;
  n

(* Park one already-seq-flipped node locally. Only the block-granularity
   spill touches shared memory: when both local chains are full, the
   spare detaches whole — one O(1) handle push per [block_size] frees,
   never a per-node shared write. *)
let push_free t pool n =
  if pool.a_count < t.block_size then begin
    n.free_next <- pool.a_head;
    pool.a_head <- n;
    pool.a_count <- pool.a_count + 1
  end
  else if pool.s_count < t.block_size then begin
    n.free_next <- pool.s_head;
    pool.s_head <- n;
    pool.s_count <- pool.s_count + 1
  end
  else begin
    push_shared t { bh_head = pool.s_head; bh_count = pool.s_count };
    pool.returns <- pool.returns + 1;
    pool.s_head <- n;
    pool.s_count <- 1
  end

let free t ~tid n =
  if n.seq land 1 = 1 then Striped.incr t.double_free tid
  else begin
    let pool = t.pools.(tid) in
    n.seq <- n.seq + 1;
    push_free t pool n;
    pool.frees <- pool.frees + 1;
    pool.node_frees <- pool.node_frees + 1
  end

let free_block t ~tid ?len nodes =
  let len = match len with None -> Array.length nodes | Some l -> l in
  if len < 0 || len > Array.length nodes then invalid_arg "Heap.free_block: bad length";
  let pool = t.pools.(tid) in
  let freed = ref 0 in
  for i = 0 to len - 1 do
    let n = nodes.(i) in
    (* The per-node seq flip is the simulation's mandatory bookkeeping
       (it is what makes UAF detectable); the shared-memory traffic
       stays block-granularity via [push_free]'s spill. *)
    if n.seq land 1 = 1 then Striped.incr t.double_free tid
    else begin
      n.seq <- n.seq + 1;
      push_free t pool n;
      incr freed
    end
  done;
  pool.frees <- pool.frees + !freed;
  pool.bulk_freed <- pool.bulk_freed + !freed

(* Sentinels get negative ids and never enter a freelist, so they are
   permanently live and cannot collide with allocated nodes. *)
let sentinel t =
  let id = Atomic.fetch_and_add (Striped.cell t.sentinel_id 0) (-1) in
  make_node ~id ~seq:0 ~nil:t.nil (t.payload id)

let is_live n = n.seq land 1 = 0

let check_access t n = if n.seq land 1 = 1 then Striped.incr t.uaf 0

let allocated_total t = Array.fold_left (fun acc p -> acc + p.allocs) 0 t.pools

let freed_total t = Array.fold_left (fun acc p -> acc + p.frees) 0 t.pools

let live_nodes t = allocated_total t - freed_total t

type pool_stats = {
  local_free : int;
  pool_allocs : int;
  pool_frees : int;
  pool_grabs : int;
  pool_returns : int;
}

let pool_stats t ~tid =
  let p = t.pools.(tid) in
  {
    local_free = p.a_count + p.s_count;
    pool_allocs = p.allocs;
    pool_frees = p.frees;
    pool_grabs = p.grabs;
    pool_returns = p.returns;
  }

let block_grabs t = Array.fold_left (fun acc p -> acc + p.grabs) 0 t.pools

let block_returns t = Array.fold_left (fun acc p -> acc + p.returns) 0 t.pools

let pool_blocks t = Striped.get t.shared_blocks 0

let free_nodes t =
  Array.fold_left (fun acc p -> acc + p.a_count + p.s_count) 0 t.pools
  + (pool_blocks t * t.block_size)

let bulk_freed_total t = Array.fold_left (fun acc p -> acc + p.bulk_freed) 0 t.pools

let node_free_calls t = Array.fold_left (fun acc p -> acc + p.node_frees) 0 t.pools

let uaf_count t = Striped.get t.uaf 0

let double_free_count t = Striped.sum t.double_free
