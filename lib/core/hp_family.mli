(** The reservation-scheme skeleton shared by hp, hp-asym, hp-pop, he,
    he-pop, cadence and ibr.

    The paper presents POP as a drop-in for HP and HE that moves only
    the point where a reservation becomes visible (§3, Algorithms 1, 4
    and 5). Cadence's tick-delayed visibility and IBR's published
    interval are two more answers to the same two questions. This
    module is that shared protocol: the records, every cold path
    ([register], [retire], the reclamation pass, [flush], [deregister],
    [stats]), the collect and the ping handler. What differs between
    the seven schemes is two values fixed at {!create}:

    - {!publication}: how a reclaimer gets to see a reader's
      reservations;
    - {!reservation}: whether a reservation is a node id, an era or an
      interval of eras.

    Each scheme keeps its own [read] (and [read_from]), [end_op] and
    [name] as top-level code over the concrete {!tctx}, so no closure or
    functor parameter sits on the read path; cadence and ibr keep their
    own [start_op] too, and ibr its [alloc]. *)

type publication =
  | Eager  (** Readers store to the shared row with a fenced store; reclaimers scan it. *)
  | Barrier
      (** hp-asym: readers store to their private row; a reclaimer runs a
          ping round whose handler only acknowledges (the membarrier
          stand-in), then reads every private row racily. *)
  | Ping
      (** Publish on ping: readers store to their private row; a
          reclaimer's ping round makes each peer copy it to the shared
          row ({!set_pop_handler}). *)
  | Tick
      (** Cadence: readers store to their private row, and a barrier
          round with [Barrier]'s handler runs every {!tick_interval}
          ({!maybe_tick}), advancing [epoch], the tick. A pass runs no
          round: it reads the private rows racily and frees only nodes
          retired at least two ticks ago. *)

type reservation =
  | Ids  (** A reservation is a node id; a node is kept while its id is reserved. *)
  | Eras
      (** A reservation is an era; a node is kept while a reserved era
          lies within its lifespan. *)
  | Intervals
      (** IBR: each thread's row is a [lo; hi] pair of eras (slot 0 and
          1, [max_int] for none); a node is kept while its lifespan
          overlaps a published interval ({!Reclaimer.scan_intervals}).
          A pass runs when the retire list reaches a multiple of the
          threshold, and [epoch] advances only in the scheme's [alloc]
          and in {!flush}. *)

type 'a t = {
  cfg : Smr_config.t;
  hub : Pop_runtime.Softsignal.t;
  heap : 'a Pop_sim.Heap.t;
  res : Reservations.t;
  hs : Handshake.t;  (** Never runs a round under [Eager]; its counters then read 0. *)
  c : Counters.t;
  eng : 'a Reclaimer.t;
  epoch : int Atomic.t;
      (** The global era, or the tick under [Tick]; it stays at 1 under
          [Ids] with any other publication. *)
  publication : publication;
  reservation : reservation;
  tick_lock : bool Atomic.t;  (** [Tick] only: one thread runs a tick round at a time. *)
  mutable last_tick_time : float;  (** [Tick] only: racy; it only gates the tick attempt. *)
}

type 'a tctx = {
  g : 'a t;
  tid : int;
  port : Pop_runtime.Softsignal.port;
  pending : int Atomic.t;  (** The port's ping flag, tested inline by [read]. *)
  rows : int array;  (** Every private row ({!Reservations.local_block}). *)
  base : int;  (** Index of this thread's slot 0 in [rows]. *)
  srow : int Atomic.t array;  (** This thread's shared row. *)
  rl : 'a Reclaimer.local;
  mutable count : int;  (** Operations (cadence) or allocations (ibr) so far. *)
}

val tick_interval : float
(** Seconds between [Tick]'s barrier rounds: 2 ms. *)

val create :
  publication:publication ->
  reservation:reservation ->
  Smr_config.t ->
  Pop_runtime.Softsignal.t ->
  'a Pop_sim.Heap.t ->
  'a t

val set_pop_handler :
  Pop_runtime.Softsignal.port -> Reservations.t -> 'a Reclaimer.t -> Handshake.t -> unit
(** The POP "signal handler" for [port]'s owner: publish its private
    reservations with [Atomic.set] (the fence Algorithm 2 requires),
    invalidate the engine's cached snapshot (the publish is new visible
    reservation state), then ack the handshake. {!register} installs it
    under [Ping]; epoch-pop installs it too. *)

val register : 'a t -> tid:int -> 'a tctx
(** Claim [tid] and install the publication's handler. Every thread's
    scratch holds two full tables, room for the [Ping] collect. *)

val start_op : 'a tctx -> unit

val maybe_tick : 'a tctx -> unit
(** [Tick]'s gate: the first thread to see {!tick_interval} elapsed runs
    a barrier round, and a clean one advances the tick and invalidates
    the engine's snapshot. *)

val advance : 'a t -> unit
(** Advance the era and invalidate the engine's snapshot. *)

val poll : 'a tctx -> unit

val check : 'a tctx -> 'a Pop_sim.Heap.node -> unit

val alloc : 'a tctx -> 'a Pop_sim.Heap.node
(** Stamped with [epoch]. *)

val retire : 'a tctx -> 'a Pop_sim.Heap.node -> unit
(** Stamp the retire era from [epoch], retire, and run a pass when the
    retire list is due (under [Intervals], when it reaches a multiple of
    the threshold). Under [Tick] the pass first runs {!maybe_tick}.

    A fresh pass collects the reservation table per the publication:
    - [Eager]: the shared table.
    - [Barrier]: one {!Handshake.round}, then every peer's private row,
      read racily. A timed-out peer needs no fallback, since its row is
      read anyway.
    - [Tick]: every private row, read racily, with no round.
    - [Ping] (Algorithm 2's handshake and collect): one
      {!Handshake.round}, then the caller publishes its own row (the
      round skips self, but the scan must see the reclaimer's
      reservations too), collects the shared table, and appends a racy
      copy of every timed-out peer's private row.

    The racy copies are safe: a peer deaf for the whole spin budget has
    not executed READ since long before the ping (every READ tests the
    flag), so its last reservation stores are visible; and a
    reservation written but not yet validated is safe to honour,
    because the validating re-read either confirms it or the peer
    retries. Under [Eras] the collect first advances the era. *)

val free_unpublished : 'a tctx -> 'a Pop_sim.Heap.node -> unit

val enter_write_phase : 'a tctx -> 'a Pop_sim.Heap.node array -> unit

val flush : 'a tctx -> unit
(** Run a forced pass over the whole retire list. Under [Tick] a
    barrier round runs first, and a clean one advances the tick by two;
    under [Intervals] the era advances once first. *)

val deregister : 'a tctx -> unit
(** Clear both of the thread's rows, donate its survivors to the
    orphanage and release its port. *)

val unreclaimed : 'a t -> int

val stats : 'a t -> Smr_stats.t
(** [epoch] reads 1 under [Ids] with any publication but [Tick]. *)
