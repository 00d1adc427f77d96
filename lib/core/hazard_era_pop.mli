(** HazardEraPOP: hazard eras with publish-on-ping (Algorithm 5).

    Like hazard eras, readers reserve the current global era rather than
    individual pointers, and nodes record their birth and retire eras;
    like POP, the reservation is kept thread-private (plain store, no
    fence — and no fence even when the era changed under the read, which
    is where original HE pays one) and only published when a reclaimer
    pings. The global era advances every [epoch_freq] allocations of a
    thread and in each fresh pass's collect ({!Hp_family.alloc}); the
    allocation tick does not invalidate the reclaimer's snapshot, so it
    starts no ping round. A retired node is freed when no published era
    intersects its [birth, retire] lifespan. *)

include Smr.S
