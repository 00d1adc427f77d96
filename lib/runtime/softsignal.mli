(** Soft signals: the stand-in for [pthread_kill] + signal handlers.

    The paper's publish-on-ping mechanism needs a reclaimer to interrupt
    every other thread and have each run a handler in its own context.
    OCaml domains cannot receive per-thread POSIX signals, so this module
    models delivery with a per-thread pending flag: {!ping_all} raises the
    flag of every registered peer. At every SMR-protected read a thread
    tests its own flag inline (through {!pending_cell}, cached in its
    context) and calls {!poll} only when the flag is up, so a read with
    no ping pending pays one load and a branch, as a read pays nothing
    for a signal that has not arrived. Threads also call {!poll}
    unconditionally at operation boundaries and in stall, lock and wait
    loops; {!poll} runs the handler when the flag is up.

    Properties preserved from real signals (see DESIGN.md):
    - the handler runs in the target thread, so it observes that thread's
      own prior (unfenced) writes, exactly like a POSIX handler;
    - delivery latency is bounded (at most one protected read);
    - pings to dead threads are skipped, like [pthread_kill] = [ESRCH];
    - concurrent pings coalesce: a flag raised during handler execution
      stays up and triggers one more handler run, never zero.

    A thread simulating a delay simply stops polling; {!poll} from a stall
    loop models a descheduled thread being rescheduled. *)

type t
(** A hub shared by all threads of one benchmark/data-structure instance. *)

type port
(** One thread's endpoint. Created by {!register}; owned by that thread. *)

val create : max_threads:int -> t
(** A hub with slots for thread ids [0 .. max_threads-1]. *)

val max_threads : t -> int

val register : t -> tid:int -> port
(** Claim slot [tid] and mark it alive. Raises [Invalid_argument] if the
    slot is out of range or already active. *)

val set_handler : port -> (unit -> unit) -> unit
(** Install the "signal handler" run by {!poll} when a ping is pending.
    The handler must not itself ping or block. *)

val deregister : port -> unit
(** Mark the slot dead; subsequent pings skip it. Runs the handler one
    last time if a ping is pending, so no reclaimer is left waiting, and
    clears the pending flag afterwards so a ping racing with the
    shutdown cannot leave a dead slot permanently flagged (waiters must
    check {!is_active}, not just the counter — see
    {!Handshake.round}). *)

val is_active : t -> int -> bool
(** Whether slot [tid] currently has a live registrant. *)

val tid : port -> int

val ping : t -> int -> bool
(** [ping t tid] raises [tid]'s flag. Returns [false] (and does nothing)
    if the slot is dead — the analogue of [pthread_kill] returning
    [ESRCH]. *)

val ping_all : t -> self:int -> unit
(** Ping every active slot except [self]. *)

val poll : port -> unit
(** If a ping is pending: clear the flag, then run the handler. A ping
    arriving during the handler leaves the flag up for the next poll. *)

val pending : port -> bool
(** Racy check whether a ping is pending (without handling it). *)

val pending_cell : port -> int Atomic.t
(** The port's pending flag itself: [1] while a ping is pending, else
    [0]. Only {!ping} raises it and only {!poll}/{!deregister} clear
    it. A reader caches the cell and runs
    [if Atomic.get cell = 1 then poll port] at each delivery point,
    which delivers within one protected read without the call. *)

val heartbeat : t -> int -> int
(** Racy read of slot [tid]'s heartbeat counter. {!poll} bumps it by
    one on every call (whether or not a ping was pending: at operation
    boundaries, in stall and wait loops, and on every delivery), and
    {!register} bumps it once when a new occupant claims the slot. The
    owner bumps it with a plain store on a cache line of its own (no
    barrier), so a reader on another domain may see a count that lags
    the owner's latest polls. A failure detector that sees the counter
    unchanged across several timeout rounds may treat the thread as
    crashed; any movement proves the occupant is still polling (or was
    replaced). *)

val pings_sent : t -> int
(** Total pings delivered through this hub (for stats). *)

val handler_runs : t -> int
(** Total handler executions across all ports (for stats). *)

(** {2 Fault injection}

    Real signal delivery can be delayed arbitrarily by the OS, and the
    bounded handshake (see {!Handshake}) must stay safe when it is. These
    hooks let the harness exercise that path deterministically: with
    [drop_ping] a ping is "lost in flight" (the sender still sees
    success, the flag is never raised), with [delay_poll] a poll leaves a
    pending flag up for a later poll. Draws are derived from [seed] plus
    a shared event counter, so a fixed schedule replays identically. *)

val inject_faults : t -> seed:int -> drop_ping:float -> delay_poll:float -> unit
(** Enable fault injection with the given per-event probabilities (both
    in [\[0, 1\]]; raises [Invalid_argument] otherwise). Passing both as
    [0.0] disables injection. Call while the hub is quiescent (before
    workers start); the configuration is read racily on hot paths. *)

val clear_faults : t -> unit
(** Disable fault injection. *)

val pings_dropped : t -> int
(** Total pings lost to [drop_ping] faults. *)

val polls_delayed : t -> int
(** Total polls deferred by [delay_poll] faults. *)
