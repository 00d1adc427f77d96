(** Original hazard eras (Ramalhete & Correia 2017), Algorithm 4.

    Readers reserve the current global era in a shared SWMR slot. The
    fence is only paid when the era changed since the slot's previous
    value — less often than HP, but still on the read path. The global
    era advances every [epoch_freq] allocations of a thread and in each
    fresh reclamation pass ({!Pop_core.Hp_family.alloc}). A node is
    freed when no published era intersects its [birth, retire] lifespan. *)

include Pop_core.Smr.S
