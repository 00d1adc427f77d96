(** No reclamation: the leaky baseline (NR in the paper's plots).

    Reads are bare atomic loads; retired nodes are counted but never
    freed, so memory grows without bound. This is the upper bound on
    throughput every SMR is compared against. *)

include Pop_core.Smr.S

val retire_now : 'a tctx -> 'a Pop_sim.Heap.node -> unit
(** Count the retire and free the node at once, with no grace period:
    {!Unsafe_free}'s [retire]. *)
