(** The publish-on-ping pieces that hp-pop, he-pop and epoch-pop share:
    the handler a ping runs, and (for hp-pop and he-pop) the collect
    that follows a {!Handshake.round}. epoch-pop keeps its own collect,
    because its timed-out peers fall back to their epoch announcement
    rather than their private row. *)

val set_handler :
  Pop_runtime.Softsignal.port -> Reservations.t -> 'a Reclaimer.t -> Handshake.t -> unit
(** The POP "signal handler" for [port]'s owner: publish its private
    reservations with [Atomic.set] (the fence Algorithm 2 requires),
    invalidate the engine's cached snapshot (the publish is new visible
    reservation state), then ack the handshake. *)

val collect : Reservations.t -> Handshake.t -> port:Pop_runtime.Softsignal.port -> int array -> int
(** Algorithm 2's handshake and collect, from [port]'s owner: run a
    {!Handshake.round}, publish the caller's own row (the round skips
    self, but the scan must see the reclaimer's reservations too),
    collect the shared table into the scratch array, and append a racy
    copy of every timed-out peer's private row. Returns the number of
    cells written; the scratch array needs room for two full tables.

    The racy copy is safe: a peer deaf for the whole spin budget has not
    executed READ since long before the ping (every READ tests the
    flag), so its last reservation stores are visible; and a reservation
    written but not yet validated is safe to honour, because the
    validating re-read either confirms it or the peer retries. *)
