(** Harris-Michael lock-free linked list machinery (Michael 2002), the
    engine behind both the HML list and the HMHT hash table.

    A node is flat: its key is the {!Pop_sim.Heap.node} header's [key]
    and its payload is its [next] cell itself, so a hop is three
    dependent loads (node → cell → [Link] → next node) and a key read
    is one. Deletion marks live in the deleted node's own [next] link.
    A link is an immutable [Link] block that holds the target node
    itself (no [option] box in between). Every store allocates a fresh
    block, so a CAS compares its expected value by block identity: a
    link that was read, swapped away and then replaced by one with the
    same target and mark is still a different block, so the CAS fails
    instead of suffering ABA.

    [find] unlinks marked nodes as it goes — restarting the traversal
    as a fresh operation after each unlink, which keeps the write (the
    unlink CAS and retire) inside an NBR write phase without violating
    its one-write-phase-per-op rule.

    Every pointer step goes through [T.read] with three rotating
    reservation slots (prev, curr, next) and re-validates [prev.next]
    after reading [curr.next] — the standard hazard-pointer discipline
    that makes all reservation-based schemes in this repository safe.
    Link values travel as reservation witnesses ([link T.reserved]), so
    every dereference is forced through [T.deref]. *)

module Make (T : Pop_core.Smr_typed.S) : sig
  type cell = link Atomic.t
  (** A node's payload: its [next] cell. The key is the node's
      {!Pop_sim.Heap.node.key}. *)

  and link =
    | Nil  (** Placeholder in fresh payloads; never read by a traversal. *)
    | Link of { tgt : cell Pop_sim.Heap.node; marked : bool }

  exception Retry_find

  val payload : int -> cell
  (** Fresh-node payload builder, for {!Ds_common.Make.make_base}. *)

  val proj : link -> cell Pop_sim.Heap.node
  (** The link's target; the projection passed to [T.read]. Raises
      [Failure] on [Nil]. *)

  val node_key : cell Pop_sim.Heap.node -> int

  val next_cell : cell Pop_sim.Heap.node -> cell

  val make_tail : cell Pop_sim.Heap.t -> cell Pop_sim.Heap.node
  (** The shared [max_int] sentinel every chain ends with. *)

  val make_head : cell Pop_sim.Heap.t -> tail:cell Pop_sim.Heap.node -> cell Pop_sim.Heap.node
  (** A [min_int] head sentinel linked straight to [tail]: a list's
      anchor, whose {!next_cell} is its head cell. *)

  val head_cell : tail:cell Pop_sim.Heap.node -> cell
  (** A bare head cell linked straight to [tail]: a hash bucket. *)

  (** Result of a completed traversal, positioned at the first node with
      key >= the search key. *)
  type find_res = {
    found : bool;
    fprev : cell Pop_sim.Heap.node;
    fprev_cell : link Atomic.t;
    fcurr_link : link T.reserved;
        (** witness read at [fprev_cell]; its target is curr *)
    fnext_link : link T.reserved;
        (** witness of curr.next (meaningful when curr < tail) *)
  }

  val find :
    (cell, Pop_core.Smr_typed.active) T.handle ->
    T.slot array ->
    cell Pop_sim.Heap.node ->
    cell ->
    int ->
    find_res
  (** [find a sl anchor head key] traverses the chain at the head cell
      [head], unlinking marked nodes along the way; retries internally,
      so it never raises {!Retry_find}. [anchor] is a never-retired
      sentinel that stands as the [prev] node of the chain's first node
      (only {!T.enter_write_phase} sees it). The slot array is the
      instance's {!Pop_core.Smr_typed.S.slots} (the first three are
      used, rotating). *)

  val contains_in_op :
    (cell, Pop_core.Smr_typed.active) T.handle ->
    T.slot array ->
    cell Pop_sim.Heap.node ->
    cell ->
    int ->
    bool

  val insert_in_op :
    (cell, Pop_core.Smr_typed.active) T.handle ->
    T.slot array ->
    cell Pop_sim.Heap.node ->
    cell ->
    int ->
    bool

  val delete_in_op :
    (cell, Pop_core.Smr_typed.active) T.handle ->
    T.slot array ->
    cell Pop_sim.Heap.node ->
    cell ->
    int ->
    bool
  (** The [_in_op] bodies assume the caller bracketed them with
      [start_op]/[end_op] (see {!Ds_common.Make.with_op}). *)

  val iter_seq : cell -> (int -> unit) -> unit
  (** Quiescent in-order iteration over the unmarked keys of the chain
      at a head cell. *)

  val size_seq : cell -> int

  val check_seq : cell Pop_sim.Heap.t -> cell -> unit
  (** Structural invariants: strictly ascending keys from the head cell
      to the tail, every linked node live, and no chain reaching [Nil].
      Raises [Failure] on violation. *)
end
