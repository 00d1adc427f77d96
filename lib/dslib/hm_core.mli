(** Harris-Michael lock-free linked list machinery (Michael 2002), the
    engine behind both the HML list and the HMHT hash table.

    A node is flat: its key is the {!Pop_sim.Heap.node} header's [key]
    and its payload is its [next] cell, which holds the successor node
    itself. A hop is three dependent loads (node → [Cell] box → atomic
    → next node) and a key read is one. The [Cell] box is the price of
    OCaml 5.1: a node-typed [Atomic.t] cannot sit unboxed in a node's
    payload without [Obj.magic], because every node needs a cell and
    every cell a node, and [let rec] rejects [Atomic.make]; the
    constant [Unlinked] is the base case that ties the knot.

    Inserts and unlinks swap one existing pointer and allocate nothing.
    A delete marks the deleted node by CASing its cell from its
    successor to a fresh {e marker}: a node-typed record that the heap
    never sees, whose own cell holds the successor and never changes.
    Its key is [min_int], which only head sentinels share and no next
    cell otherwise holds (so keys must lie strictly between [min_int]
    and [max_int]), and its id is [min_int], the reservations' "none",
    so reserving one is harmless. A marked cell never again holds a
    heap node, so no insert or unlink CAS on it can succeed. Markers
    are garbage-collected: no retire list or scan ever sees one.

    Every CAS compares its expected value by node identity, which is
    ABA-safe only while the expected node cannot be freed, recycled and
    relinked in between. Each one's expected node is reserved and
    validated before the CAS: insert's [curr] and the unlink's [curr]
    sit in the traversal's slots and in the write phase's reservations
    ([\[| prev; curr |\]]), the mark's successor in the [next] slot and
    in the delete's write phase ([\[| prev; curr; succ |\]]). A safe
    scheme therefore cannot recycle any of them before the CAS; NBR,
    whose reads are unprotected until the write phase, is covered by
    the write phase's reservations.

    [find] unlinks marked nodes as it goes — restarting the traversal
    as a fresh operation after each unlink, which keeps the write (the
    unlink CAS and retire) inside an NBR write phase without violating
    its one-write-phase-per-op rule. On reading a marker it reserves
    the marker's successor into the [next] slot, re-validates [prev],
    unlinks and restarts.

    Every pointer step goes through [T.read] with three rotating
    reservation slots (prev, curr, next) and re-validates [prev.next]
    after reading [curr.next] — the standard hazard-pointer discipline
    that makes all reservation-based schemes in this repository safe.
    Nodes travel as reservation witnesses
    ([cell Pop_sim.Heap.node T.reserved]), so every dereference is
    forced through [T.check]. *)

module Make (T : Pop_core.Smr_typed.S) : sig
  type cell =
    | Unlinked
        (** The payload of the one never-live base node that a fresh
            node's cell holds until an insert sets it. No correct chain
            reaches it. *)
    | Cell of cell Pop_sim.Heap.node Atomic.t
        (** A node's [next] cell, holding its successor node (or, once
            the node is deleted, a marker). *)
  (** A node's payload. The key is the node's {!Pop_sim.Heap.node.key}. *)

  type link = cell Pop_sim.Heap.node Atomic.t
  (** A bare next cell: a node's, a bucket head or a list's head. *)

  exception Retry_find

  val payload : int -> cell
  (** Fresh-node payload builder, for {!Ds_common.Make.make_base}: a
      cell holding the [Unlinked] base node. *)

  val node_key : cell Pop_sim.Heap.node -> int

  val next_cell : cell Pop_sim.Heap.node -> link
  (** Raises [Failure] on the [Unlinked] base node. *)

  val marker : cell Pop_sim.Heap.node -> cell Pop_sim.Heap.node
  (** [marker succ] is a fresh marker whose cell holds [succ]. A CAS of
      a node's cell from [succ] to it marks the node deleted. *)

  val make_tail : cell Pop_sim.Heap.t -> cell Pop_sim.Heap.node
  (** The shared [max_int] sentinel every chain ends with. *)

  val make_head : cell Pop_sim.Heap.t -> tail:cell Pop_sim.Heap.node -> cell Pop_sim.Heap.node
  (** A [min_int] head sentinel linked straight to [tail]: a list's
      anchor, whose {!next_cell} is its head cell. *)

  val head_cell : tail:cell Pop_sim.Heap.node -> link
  (** A bare head cell linked straight to [tail]: a hash bucket. *)

  (** Result of a completed traversal, positioned at the first node with
      key >= the search key. *)
  type find_res = {
    found : bool;
    fprev : cell Pop_sim.Heap.node;
    fprev_cell : link;
    fcurr : cell Pop_sim.Heap.node T.reserved;  (** curr, read at [fprev_cell] *)
    fnext : cell Pop_sim.Heap.node T.reserved;
        (** curr's unmarked successor (meaningful when curr < tail) *)
  }

  val find :
    (cell, Pop_core.Smr_typed.active) T.handle ->
    T.slot array ->
    cell Pop_sim.Heap.node ->
    link ->
    int ->
    find_res
  (** [find a sl anchor head key] traverses the chain at the head cell
      [head], unlinking marked nodes along the way; retries internally,
      so it never raises {!Retry_find}. It also stops at a successor
      whose key does not exceed its node's, which only a chain broken
      by an unsafe scheme's ABA has, so even a cycle cannot hang it. [anchor] is a never-retired
      sentinel that stands as the [prev] node of the chain's first node
      (only {!T.enter_write_phase} sees it). The slot array is the
      instance's {!Pop_core.Smr_typed.S.slots} (the first three are
      used, rotating). *)

  val contains_in_op :
    (cell, Pop_core.Smr_typed.active) T.handle ->
    T.slot array ->
    cell Pop_sim.Heap.node ->
    link ->
    int ->
    bool

  val insert_in_op :
    (cell, Pop_core.Smr_typed.active) T.handle ->
    T.slot array ->
    cell Pop_sim.Heap.node ->
    link ->
    int ->
    bool
  (** Allocates the new node and nothing else. *)

  val delete_in_op :
    (cell, Pop_core.Smr_typed.active) T.handle ->
    T.slot array ->
    cell Pop_sim.Heap.node ->
    link ->
    int ->
    bool
  (** Allocates one marker per mark attempt. The [_in_op] bodies assume
      the caller bracketed them with [start_op]/[end_op] (see
      {!Ds_common.Make.with_op}). *)

  val iter_seq : link -> (int -> unit) -> unit
  (** Quiescent in-order iteration over the unmarked keys of the chain
      at a head cell; stops, like {!find}, at a non-ascending step. *)

  val size_seq : link -> int

  val check_seq : cell Pop_sim.Heap.t -> link -> unit
  (** Structural invariants: strictly ascending keys from the head cell
      to the tail, every linked node live (marked ones included), and no
      chain reaching the [Unlinked] base node. Raises [Failure] on violation. *)
end
