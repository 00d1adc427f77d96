(** A scheme wrapped so that every call is counted and, inside sampled
    operations, timed ({!Trace}). It has the raw [Smr.S] signature, so
    the traced structure is the untraced one's functor applied to
    [Smr_typed.Of (Make (scheme))]: the data-structure code under test
    is the same. *)

module Make (S : Pop_core.Smr.S) : Pop_core.Smr.S
