(** Cadence/QSense-style hazard pointers (Balmau et al. 2016), the
    context-switch-barrier alternative the paper's section 2.1.2
    criticizes.

    Readers publish reservations with plain stores (no fence). A
    periodic {e global barrier round} — in the original, context
    switches forced by auxiliary threads pinned to every core — makes
    all reservations visible: here, whichever thread first notices the
    tick interval elapsed pings everyone (the handler is an ack, whose
    seq_cst increment is the barrier) and advances the global tick.
    Retired nodes are stamped with the tick and may be freed once {e two}
    ticks have passed (so a full barrier round separates retirement from
    the scan) and no visible reservation covers them.

    The paper's criticism is reproduced faithfully: the barrier rounds
    run at a fixed cadence {e whether or not anyone reclaims}, and
    reclamation latency is coupled to the tick period — unlike POP,
    which signals exactly when a reclaimer needs reservations. *)

include Pop_core.Smr.S

val tick_interval : float
(** Seconds between global barrier rounds: 2 ms. *)
