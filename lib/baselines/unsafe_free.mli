(** Deliberately unsafe reclamation: free at retire time.

    Exists to prove the harness can detect unsafety: under concurrency
    this scheme recycles nodes other threads still hold, so the heap's
    use-after-free counter must go positive. Never use outside tests.
    It is {!Nr} with {!Nr.retire_now} as [retire]. *)

include Pop_core.Smr.S
