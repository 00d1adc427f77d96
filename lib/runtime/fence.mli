(** Calibrated memory-fence cost model.

    The algorithms under study differ in {e where they fence}, and the
    paper's results follow from the x86 cost ratio between a pointer-
    chase step (a few cycles) and a store-load fence (tens of cycles,
    plus a drained store buffer). An OCaml traversal step is an order of
    magnitude heavier than its C counterpart while [Atomic.set]'s
    [xchg] is not, so executed naively the fence the paper eliminates
    would be lost in interpreter-level noise and {e every} algorithm
    would look alike.

    [execute cell n] therefore performs [n] sequentially consistent
    read-modify-writes on the caller's own atomic cell: a real, ordered
    cost — not a sleep — whose magnitude restores the fence-to-step
    ratio. Each algorithm invokes it exactly where the real
    implementation executes a fence (see Smr_config.fence_cost; setting
    it to 0 disables the model). The ablation bench sweeps this knob. *)

type cell
(** A per-thread fence target: no other thread writes it, though it may
    share a cache line with other data (see {!Striped}). *)

val make_cell : unit -> cell

val execute : cell -> int -> unit
(** [execute cell n]: [n] seq_cst RMWs on [cell]; no-op when [n <= 0]. *)
