(** The publish-counter handshake of Algorithms 1–2.

    A reclaimer snapshots every thread's publish counter
    (COLLECTPUBLISHEDCOUNTERS), pings all threads (PINGALLTOPUBLISH) and
    waits until each active peer's counter has moved
    (WAITFORALLPUBLISHED). Counters are monotonically increasing SWMR
    slots bumped by each thread's handler after it publishes, so one
    publish satisfies every reclaimer whose snapshot preceded it —
    concurrent pings coalesce exactly as the paper describes.

    The wait loop polls the waiter's own port (two reclaimers pinging
    each other must both publish) and skips peers that deregister.

    This module is the only owner of a ping round: every ping-round
    scheme (hp-pop, he-pop, epoch-pop, hp-asym, cadence, nbr) runs its
    rounds through {!round}, whose per-caller rows and timeout tally
    live here.

    {b Divergence from the paper:} a POSIX signal interrupts its target,
    so the paper's wait provably terminates; our polled substitution can
    meet a peer that never polls (a descheduled or "deaf" thread). The
    wait is therefore bounded by a per-peer attempt budget
    ({!Smr_config.t.ping_timeout_spins}). On expiry the peer is
    reported by {!timed_out} and the caller must conservatively
    treat everything that peer might hold as reserved — its racily
    readable reservation rows and/or its announced epoch — rather than
    waiting for a publish that may never come. See DESIGN.md "Bounded
    handshake" for the safety argument.

    {b Failure detector:} a peer that times out [suspect_after]
    consecutive rounds while its {!Pop_runtime.Softsignal.heartbeat}
    stays frozen is marked {e suspect} and quarantined: later rounds
    skip its ping entirely and report the timeout immediately (the
    caller takes the same conservative fallback, just without burning
    the spin budget against a dead port). Quarantined peers are
    re-probed with exponentially backed-off pings and un-quarantined as
    soon as their heartbeat moves — including when a fresh thread
    re-registers the slot, since {!Pop_runtime.Softsignal.register}
    bumps the heartbeat. Detection is a performance heuristic only;
    safety always rests on the conservative fallback. *)

type t

val create : Smr_config.t -> Pop_runtime.Softsignal.t -> t
(** One handshake per scheme instance, with one counter-snapshot row and
    one timed-out row per caller tid ([max_threads] of the hub), so
    concurrent reclaimers never share a round's state. The spin budget
    is {!Smr_config.t.ping_timeout_spins} and the quarantine threshold
    {!Smr_config.t.suspect_after}; both are assumed validated
    ({!Smr_config.validate}). The exponential backoff between re-probes
    of a quarantined peer is capped at 64 rounds (EXPERIMENTS.md
    "Failure-detector sweep" found caps of 8 and 64 indistinguishable). *)

val ack : t -> tid:int -> unit
(** Bump [tid]'s publish counter. Called from the signal handler after
    the handler's real work (publishing reservations). *)

val get : t -> int -> int

val round : t -> port:Pop_runtime.Softsignal.port -> int
(** One ping round (snapshot + ping + bounded wait) from the thread
    owning [port]. Waits only for the threads the ping actually
    reached: threads that register after the ping round are excluded
    (like a thread spawned after a [pthread_kill] sweep, they cannot
    hold references to nodes retired before they existed), and threads
    that deregister mid-wait are skipped.

    Returns the number of peers that timed out — pinged, still active,
    and unpublished when their spin budget ran out, or quarantined
    suspects whose re-probe was not yet due (skipped without a ping).
    0 is a clean round, equivalent to the unbounded handshake. The count
    is added to {!timeout_count}. *)

val timed_out : t -> port:Pop_runtime.Softsignal.port -> int -> bool
(** [timed_out t ~port tid]: whether [tid] timed out in the last
    {!round} run from [port] (the caller's own row; every entry is
    rewritten by each round). *)

val timeout_count : t -> int
(** Cumulative peer timeouts over every caller's rounds (for stats). *)

val suspected : t -> int -> bool
(** Racy check whether slot [tid] is currently quarantined. A suspect's
    reported timeout means "this peer has stopped polling", not merely
    "this peer was slow this round" — schemes whose fallback quality
    depends on the distinction (e.g. EpochPOP's epoch floor, which a
    crashed peer would pin forever) may choose a different fallback for
    suspects. *)

val suspect_count : t -> int
(** Cumulative number of quarantine transitions (for stats). *)

val quarantine_round_count : t -> int
(** Cumulative number of per-peer ping skips taken because the peer was
    quarantined and its re-probe was not yet due (for stats). *)
