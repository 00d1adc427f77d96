(** RCU-style epoch-based reclamation (Algorithm 6).

    The fast, non-robust baseline: one epoch announcement per operation,
    bare reads, and reclamation of everything retired before the oldest
    announced epoch. A single delayed thread pins the minimum epoch and
    stops {e all} reclamation — the robustness failure EpochPOP fixes.
    An O(1) guard skips passes while the minimum epoch has not moved,
    so a pinned run degrades in memory, not in time, and a blocked pass
    is retried every segment block once the minimum moves. It is
    {!Pop_core.Epoch_family} without EpochPOP's publish-on-ping
    fallback. *)

include Pop_core.Smr.S
