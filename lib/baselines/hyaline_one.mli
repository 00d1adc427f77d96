(** Hyaline-1 (Nikolaev & Ravindran): per-batch reference counting with
    the deferred-adjustment protocol.

    Retired nodes accumulate in the shared {!Pop_core.Reclaimer} buffer
    until the threshold trips; the retirer then forms one batch and
    ENLISTs it on every slot observed active, counting successful
    pushes, and applies that count to the batch's [refs] in a single
    deferred adjustment ([refs] starts at 0, so a thread that LEAVEs
    before the adjustment drives the counter negative and the
    adjustment landing exactly on 0 hands the free to the retirer).
    Each leaver TRAVERSEs its charged batches, and the decrement that
    crosses 0 frees the whole batch. No reservation scans, no
    per-thread snapshots — reclamation cost is O(active threads) per
    batch, independent of the retired population.

    Its sibling {!Hyaline_one_s} (Hyaline-1S) adds the birth-era guard
    that makes the scheme robust: stalled or crashed threads with frozen
    eras stop being charged for batches born after they froze.

    Like EBR, plain Hyaline-1 is {e not} robust: a stalled or crashed
    thread whose slot stays active is enlisted on every later batch and
    pins unbounded garbage — exactly the contrast the robustness
    tournament's stall/crash cells measure. *)

include Pop_core.Smr.S
