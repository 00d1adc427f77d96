(** Hyaline-1S (Nikolaev & Ravindran): Hyaline-1's per-batch reference
    counting plus the birth-era guard that makes it robust, the
    {!Hyaline_family} instance with the guard.

    Every thread publishes one era cell ({e fenced, before} going
    active, and revalidated on every protected read, like hazard eras).
    A successful protected read implies the global era equalled the
    reader's published era, so a thread whose era is older than a
    batch's minimum birth era cannot reach any of its nodes, and ENLIST
    skips it. A stalled or crashed thread is therefore only charged for
    batches with nodes alive when it froze: its pinned garbage is
    bounded by the live set at freeze time, like HE/IBR and the POP
    family, while {!Hyaline_one} and EBR grow with run length
    ({!Pop_core.Smr_stats.t.max_unreclaimed} in the tournament). *)

include Pop_core.Smr.S
