(** The shared retire-buffer + scan engine behind every scheme.

    Each scheme used to carry its own copy of the same block: a growable
    retire array, a raw reservation scratch, [Id_set.fill] /
    [seal], and a [filter_in_place] that frees non-reserved nodes. This
    module owns that block once, and adds three amortizations the copies
    could not share:

    {b Cached snapshots.} A fresh pass collects the reservation table
    and seals it into an {!Id_set} snapshot. Every node that survives
    the scan is {e covered} by that snapshot, and stays soundly covered
    forever: a reservation protecting a node in this thread's retire
    list must predate the node's retirement (readers validate
    reachability, and an unlinked node cannot be newly reserved), and
    the pass's handshake (or the scheme's eager publication) made every
    such pre-existing reservation visible to the collect. Reservations
    on retired nodes can only disappear afterwards, so rescanning the
    covered prefix against the same snapshot can never wrongly free —
    it can only fail to free. The engine therefore answers a triggered
    pass in O(1) — no ping round, no O(T×H) collect, no sort, no
    rescan — whenever the generation counter is unchanged and the
    uncovered suffix is below the threshold ([scan_skips],
    [snapshot_reuses] in {!Smr_stats}).

    {b Generation counter.} Schemes call {!invalidate} whenever shared
    reclamation state moves: a handler publishes private reservations,
    a global epoch advances, a barrier tick or neutralization round
    completes. The counter governs only freshness (when a new collect
    could change a decision), never soundness — a stale cache merely
    keeps nodes longer, until the next fresh pass.

    {b Segmented retire lists (Blelloch–Wei).} Retire buffers are
    linked lists of fixed-size blocks ({!Smr_config.t.segment_size}
    slots), split into a covered list and an uncovered open list. The
    old integer watermark is now the list boundary itself, so a
    cache-served pass advances the covered prefix in O(1) — it is a
    no-op. A pass goes fresh when the open list alone reaches the
    threshold; it filters block by block, returns fully-freed blocks to
    a per-reclaimer freelist (bounding allocation churn the way
    {!Pop_sim.Heap}'s node freelists already do), re-vets at most 2
    covered blocks more than the open list's survivors fill, youngest
    first, and then promotes those survivors to the covered head with
    one splice — so fresh work is O(uncovered blocks + rescan quota),
    never O(total retired), matching BW21's constant-time block
    operations (see DESIGN.md §4.2).

    {b Era-stamped blocks.} Each block carries the exact min/max of its
    nodes' [birth_era]/[retire_era] (merged on retire, recomputed over
    filter survivors, travelling with the block across splices). A
    block-level classifier ({!scan_eras} for the era schemes,
    {!scan_intervals} for IBR) answers "any reservation inside this
    block's envelope?" with one probe and frees or keeps all
    [segment_size] nodes at once; only inconclusive
    blocks fall back to the per-node [keep] ([block_skips] /
    [block_keeps] in {!Smr_stats}, stamp-soundness audited via
    [stale_stamps]).

    {b Sharded orphanage.} A departing thread {!donate}s its
    retire-buffer survivors to its {e own} orphanage stripe (one per
    donor tid) instead of leaking them; any thread's next pass
    ({!scan}, {!scan_plain} or {!take_all}) adopts by claiming stripes
    round-robin with [try_lock], skipping empty stripes on an atomic
    count and busy stripes without waiting. The hand-off is
    exactly-once per stripe, donors on different tids never contend,
    and both directions splice whole block lists in O(1) — no node is
    copied while a stripe lock is held ({!node_moves} stays flat across
    a splice). Adopted blocks land in the adopter's uncovered open
    list, so the covered invariant is preserved and the next fresh pass
    vets them against a snapshot collected after the donor left. *)

module Heap := Pop_sim.Heap

type pass =
  | Plain  (** Counted as a [reclaim_pass] (epoch/eager scan). *)
  | Pop  (** Counted as a [pop_pass] (ping/neutralization based). *)

type 'a t
(** Shared engine state for one scheme instance. *)

val create : Smr_config.t -> heap:'a Heap.t -> counters:Counters.t -> 'a t

val threshold : 'a t -> int
(** The pass-trigger threshold, {!Smr_config.t.reclaim_freq}. *)

val counters : 'a t -> Counters.t

val invalidate : 'a t -> unit
(** Bump the snapshot generation: some reservation state just became
    visible (publish, epoch advance, tick, round). Cheap — one relaxed
    atomic increment. *)

val generation : 'a t -> int

type 'a local
(** Per-thread retire buffer + scan state. Single-owner, like the
    scheme [tctx] that embeds it. *)

val register : 'a t -> tid:int -> scratch_slots:int -> 'a local
(** [scratch_slots] sizes the collect scratch and the snapshot (e.g.
    [2 * max_threads * max_hp] when the scheme unions in racy local
    rows of timed-out peers). *)

val retire : 'a local -> 'a Heap.node -> unit
(** Buffer a retired node and count it. The caller decides when to
    {!scan} (schemes keep their trigger shapes: [>=], [mod], dual). *)

val retire_leak : 'a local -> 'a Heap.node -> unit
(** Count the retire and drop the node on the floor (the NR baseline). *)

val retire_now : 'a local -> 'a Heap.node -> unit
(** Count the retire and free immediately (the unsafe-free baseline). *)

val free_unpublished : 'a local -> 'a Heap.node -> unit
(** Return a never-published node straight to the heap (no counters —
    it was never counted retired). *)

val free_array : 'a local -> 'a Heap.node array -> unit
(** Free a drained batch and count the frees (Hyaline's release). The
    whole array goes back through {!Pop_sim.Heap.free_block} in one
    call — like every engine filtering path, it issues zero per-node
    frees ({!Pop_sim.Heap.node_free_calls} pins this). *)

val pending : 'a local -> int

val is_empty : 'a local -> bool

val node_moves : 'a local -> int
(** How many node copies this local has ever performed (pushes on
    retire, in-block compactions, {!take_all} drains).
    {!donate} and adoption splice block lists without reading a node, so
    this counter staying flat across a hand-off is the testable face of
    the O(1) claim. *)

val free_blocks : 'a local -> int
(** Blocks currently parked on this local's recycle freelist. *)

val due : 'a local -> bool
(** [pending l >= threshold]. *)

val snapshot : 'a local -> Id_set.t
(** The current sealed reservation snapshot; valid inside a [keep]
    callback of a fresh {!scan}. *)

val take_all : 'a local -> 'a Heap.node array
(** Adopt any pending orphans, then drain the buffer without freeing
    (Hyaline hands the batch over to its reference-counted lists). *)

val donate : 'a local -> unit
(** Splice the entire retire buffer (covered list included) into the
    donor's own orphanage stripe — O(1) in nodes and blocks, contending
    only with an adopter momentarily claiming that stripe (counted in
    [orphan_stripe_contention]). Called on the thread's own exit path
    ([deregister]); the nodes are freed by whichever surviving thread
    scans next. Exactly-once with respect to
    {!scan}/{!scan_plain}/{!take_all} adoption. *)

val orphans_pending : 'a t -> int
(** Racy count of donated nodes not yet adopted (0 at quiescence). *)

val note_skip : 'a local -> unit
(** Record an engine-external pass suppression (EBR's unchanged-epoch
    guard) in [scan_skips]. *)

val scan :
  ?force:bool ->
  kind:pass ->
  collect:(int array -> int) ->
  except:int ->
  keep:('a Heap.node -> bool) ->
  'a local ->
  int
(** [scan ~kind ~collect ~except ~keep l] runs one reclamation pass and
    returns how many nodes were freed. When the cached snapshot is
    still fresh ([generation] unchanged since it was collected) and the
    open segment is below the threshold, the pass is answered from the
    cache in O(1) and frees nothing. Otherwise the pass goes fresh:
    [collect] fills the scratch with the reservation table (this is
    where schemes run their handshake / ping round) and returns the
    element count; the scratch, minus [except] values, is sealed into
    the snapshot; the open list is filtered block by block; up to 2
    more covered blocks than its survivors fill are re-vetted against
    the new snapshot, taken from the covered head (the youngest), those
    still holding nodes relinked to its tail; then the survivors join
    the covered list at its head, so the next pass re-vets them before
    any older block. [~force:true] (flush, explicit drains) filters
    {e everything}, covered included — seed-engine semantics. [keep]
    must be monotone in the snapshot: it may consult {!snapshot} and
    per-scheme floors captured before the pass. *)

val scan_eras :
  ?force:bool -> kind:pass -> collect:(int array -> int) -> except:int -> 'a local -> int
(** The era-interval pass (HE, HazardEraPOP): {!scan} with the engine's
    own per-node and per-block verdicts over the sealed snapshot — a
    node is kept iff a reserved era lies in [[birth_era, retire_era]],
    and a whole block is freed (kept) when one {!Id_set.exists_in_range}
    probe against its stamps proves no node (every node) is reserved.
    The snapshot accessor is hoisted once per pass; schemes must not
    probe the snapshot per node themselves (the smrlint [era-per-node]
    rule enforces this). *)

val scan_intervals :
  ?force:bool -> kind:pass -> collect:(int array -> int) -> 'a local -> int
(** The interval pass (IBR): {!scan}'s cache and block walk, with
    [collect] filling the scratch with one [lo; hi] pair per thread
    (slot 0 and 1 of each row, [lo = max_int] for no interval). The
    pairs are positional, so nothing is sealed: a node is kept iff some
    pair overlaps its [[birth_era, retire_era]], and a block is freed
    (kept) whole when no pair meets its stamps' envelope (one pair
    covers every node's lifespan). *)

val debug_stamp_errors : 'a local -> int
(** Test hook: blocks in this local's lists whose stamps differ from
    the exact min/max over their occupied slots (always 0 — the engine
    keeps stamps exact; see the QCheck stamp-maintenance property). *)

val scan_plain : kind:pass -> keep:('a Heap.node -> bool) -> 'a local -> int
(** A snapshot-less pass (EBR and EpochPOP's epoch scan): always runs
    and filters every block against [keep] in place. Filtering only
    removes nodes, so the covered list stays covered by whatever
    snapshot the cache holds. *)
