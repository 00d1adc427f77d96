(** Hyaline-1 (Nikolaev & Ravindran): per-batch reference counting with
    the deferred-adjustment protocol, the {!Hyaline_family} instance
    without the birth-era guard.

    No reservation scans, no per-thread snapshots: reclamation costs
    O(active threads) per batch, independent of the retired population.
    Like EBR it is {e not} robust: a stalled or crashed thread whose
    slot stays active is enlisted on every later batch and pins
    unbounded garbage, the contrast the robustness tournament's
    stall/crash cells measure against {!Hyaline_one_s}. *)

include Pop_core.Smr.S
