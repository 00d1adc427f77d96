(** Interval-based reclamation, 2GE variant (Wen et al. 2018).

    Each thread eagerly publishes a reservation interval [lo, hi] of
    epochs: [lo] is the epoch when its operation started, [hi] grows to
    the current epoch on every read that observes an epoch change. The
    global epoch advances every [epoch_freq] allocations of a thread
    ({!Pop_core.Hp_family.alloc}, shared with hazard eras; IBR's tick also
    invalidates the reclaimer's snapshot). A retired node
    is freed when its [birth, retire] lifespan intersects no thread's
    published interval. Robust against stalled readers in the sense that
    only nodes overlapping the stalled interval leak. *)

include Pop_core.Smr.S
