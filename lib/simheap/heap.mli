(** Simulated manual memory: the substrate that makes reclamation real.

    OCaml is garbage collected, so "freeing" a node has no native meaning
    and use-after-free cannot occur. This heap restores both: nodes are
    explicitly allocated and freed, freed nodes are recycled by later
    allocations, and every node carries an incarnation sequence number
    ([seq]): even while live, odd while free. Dereferencing a node whose
    [seq] is odd is a use-after-free; it is counted (see {!uaf_count})
    instead of crashing, so safety of an SMR algorithm is an empirically
    checkable property (the counter must stay zero) and unsafe schemes
    are detectably unsafe.

    Allocation is the Blelloch–Wei concurrent fixed-size allocator
    ("Concurrent Fixed-Size Allocation and Free in Constant Time"):
    each thread holds at most two blocks of free nodes — an active
    chain popped by {!alloc} and filled by {!free}, plus a spare — and
    a shared lock-free pool holds whole blocks of {!block_size} nodes.
    When both local chains fill, a free detaches the spare and pushes
    it to the shared pool as one handle; when both empty, an alloc
    grabs a whole block back (or mints a fresh node if the pool is
    empty too). Alloc and free are therefore O(1) with shared-memory
    traffic only at block granularity, so a producer thread that only
    allocates recycles the blocks a consumer thread that only frees
    returns, instead of one freelist growing without bound while the
    other cold-allocates. {!free_block} returns a whole drained
    retire-segment in one call — the reclaimer's block-granularity
    free — and {!pool_stats}/{!block_grabs}/{!block_returns}/
    {!pool_blocks} surface the hand-off machinery to stats and tests.

    The heap also provides the memory accounting the paper's figures
    plot: total allocations, frees, and the number of live (not yet
    freed) nodes, which includes retired-but-unreclaimed garbage. *)

(** A node is one flat block: the heap's header plus the one [int]
    key and the one payload value that every ordered structure needs.
    A structure with an int key keeps it in [key], not in its payload,
    so a key comparison is one load from the node; the Harris-Michael
    lists make their [next] cell the whole payload and let the cell
    hold the successor node itself, so a hop is node → cell box →
    atomic → node. Structures that need more (locks, towers, a
    second child, an a,b-tree's arrays) put it in a payload record. *)
type 'a node = {
  id : int;  (** Stable identity, unique across the heap's lifetime. *)
  mutable seq : int;  (** Incarnation: even = live, odd = free. *)
  mutable key : int;
      (** The structure's search key; [0] in a fresh node, and kept
          across incarnations like any recycled memory. *)
  payload : 'a;  (** The data structure's node contents, reused across
                     incarnations exactly like recycled memory. *)
  mutable birth_era : int;  (** Epoch at allocation (hazard eras / IBR). *)
  mutable retire_era : int;  (** Epoch at retirement (eras / EBR / IBR). *)
  mutable free_next : 'a node;
      (** Intrusive freelist link. A chain is counted, never walked to
          its end, so a fresh node's link (the heap's self-linked,
          never-live [nil] node) and a live node's stale link are never
          read. No [option]: a free allocates nothing. *)
}

type 'a t

val create : ?block_size:int -> max_threads:int -> payload:(int -> 'a) -> unit -> 'a t
(** [create ~max_threads ~payload ()] builds a heap whose fresh nodes
    get [payload id] as contents. Threads are identified by
    [0 .. max_threads-1]; allocation and free must pass the calling
    thread's id. [?block_size] (default 64) is the shared-pool block
    capacity — the hand-off granularity. *)

val block_size : 'a t -> int

val alloc : 'a t -> tid:int -> birth_era:int -> 'a node
(** Pop the thread's active chain (recycling a previous incarnation),
    refilling it from the spare or the shared block pool when empty, or
    make a fresh node. The result is live ([seq] even), with
    [birth_era] set and [retire_era = max_int]. O(1). *)

val free : 'a t -> tid:int -> 'a node -> unit
(** Return one node to [tid]'s pool. Freeing a node that is already
    free is counted as a double free (see {!double_free_count}) and
    otherwise ignored, so the experiment survives to report it. O(1);
    touches shared memory only when the spill hands a full block off. *)

val free_block : 'a t -> tid:int -> ?len:int -> 'a node array -> unit
(** [free_block t ~tid nodes] frees [nodes.(0 .. len-1)] as a batch
    ([len] defaults to the array length): the reclaimer's whole-segment
    free. Each node's incarnation flip and double-free check still
    happen (that is the simulation's point), but the nodes chain into
    the local pool privately and reach the shared pool only as whole
    blocks — no per-node shared-memory traffic, and no per-node [free]
    API calls (see {!node_free_calls}, the counter that pins the
    engine's block paths to this entry point). The array itself is not
    retained. *)

val sentinel : 'a t -> 'a node
(** A node that is permanently live and never recycled; for heads, tails
    and other anchors. Each call returns a fresh sentinel. *)

val is_live : 'a node -> bool
(** Racy liveness check ([seq] even). *)

val check_access : 'a t -> 'a node -> unit
(** Record a use-after-free if [node] is currently free. Called by SMR
    [check] on every protected dereference; the schemes test
    [n.seq land 1 = 1] inline first and call this only on a freed node,
    so a live dereference costs a load and a branch, not a call. *)

val live_nodes : 'a t -> int
(** Nodes allocated and not yet freed (reachable + retired garbage).
    Racy sum over per-thread counters. *)

val allocated_total : 'a t -> int

val freed_total : 'a t -> int

type pool_stats = {
  local_free : int;  (** Free nodes parked in the two local chains. *)
  pool_allocs : int;
  pool_frees : int;
  pool_grabs : int;  (** Whole blocks this pool took from the shared pool. *)
  pool_returns : int;  (** Whole blocks this pool pushed back. *)
}

val pool_stats : 'a t -> tid:int -> pool_stats
(** One thread's pool counters, maintained O(1) — no list walking.
    Single-writer fields read racily; exact when the thread is at
    rest. *)

val block_grabs : 'a t -> int
(** Whole blocks popped from the shared pool, summed over threads. *)

val block_returns : 'a t -> int
(** Whole blocks pushed to the shared pool, summed over threads. *)

val pool_blocks : 'a t -> int
(** Blocks currently parked in the shared pool (maintained count). *)

val free_nodes : 'a t -> int
(** Free nodes resident anywhere in the allocator (local chains plus
    shared pool), from maintained counts. Racy. *)

val bulk_freed_total : 'a t -> int
(** Nodes freed through {!free_block}, summed over threads. *)

val node_free_calls : 'a t -> int
(** Per-node {!free} API calls, summed over threads. The engine's
    block paths ([Free_block] verdicts, [take_all] drains, Hyaline's
    batch release) must not move this counter — the test suite pins it
    the way [node_moves] pins zero-copy splices. *)

val uaf_count : 'a t -> int
(** Use-after-free accesses detected so far. Zero under a safe SMR. *)

val double_free_count : 'a t -> int
(** Double frees detected so far. Zero under a correct SMR. *)
