(** Spans and counts recorded at the layer boundaries the benchmark
    can see from outside [lib/]: the set operation ([Pop_ds]) and the
    [Smr.S] calls it makes ({!Timed}).

    Every call is counted. Spans are recorded for one operation in
    {!sample_every}, with every SMR call inside it as a child span; in
    addition every [retire] is timed, because a reclamation pass runs
    inside the [retire] that tips the threshold and passes are too rare
    to catch by sampling. A [retire] span is counted as a pass when it
    is longer than {!pass_floor_s} {e and} the engine visibly worked
    during it: the caller's own soft-signal heartbeat moved (a ping
    round polls the waiter's port while it waits for acks) or the
    scheme's unreclaimed count did not grow although a node was just
    retired (the pass freed something). A fresh pass collects and
    filters at least one batch, µs to ms; a fast-path push is ~0.1 µs,
    and one slowed past the floor by preemption or a GC pause shows
    neither sign. A pass answered from the cached snapshot stays below
    the floor and is counted by [Smr_stats.scan_skips] instead. Pass
    spans are always stored.

    Stored spans (the first [capacity] per thread per cell, the rest
    counted as dropped) are written at exit as Chrome trace-event JSON,
    together with each cell's counters, so the per-layer numbers can be
    re-derived without a rerun. *)

type kind = Op | Start_op | End_op | Read | Alloc | Retire | Pass

val sample_every : int

val pass_floor_s : float

(** Per-thread state, owned by one worker; [Driver] reads it after
    the join. Times are in seconds. *)
type local = {
  tid : int;
  mutable sampled : bool;  (** The current operation is sampled. *)
  mutable op_id : int;  (** Operations begun so far. *)
  mutable op_slot : int;
  mutable op_children : int;
  mutable op_child_s : float;
  mutable reads : int;  (** Every [Smr.S.read]. *)
  mutable allocs : int;  (** Every [Smr.S.alloc]. *)
  mutable retires : int;  (** Every [Smr.S.retire]. *)
  mutable read_s : float;  (** Sum over sampled [read] spans. *)
  mutable read_n : int;
  mutable alloc_s : float;  (** Sum over sampled [alloc] spans. *)
  mutable alloc_n : int;
  mutable self_s : float;  (** Sum of sampled operations' self time. *)
  mutable self_n : int;  (** Sampled operations. *)
  mutable sampled_s : float;  (** Sum of sampled operations' spans. *)
  mutable plain_s : float;  (** Sum of the other operations' durations. *)
  retire_fast : Hist.t;  (** Every [retire] span below the pass floor. *)
  mutable passes : float list;  (** Every [retire] span at or above it. *)
  k : kind array;  (** Stored span [i]: its kind, *)
  times : float array;  (** start and end at [2i], [2i+1], *)
  ids : int array;  (** parent span and op id at [2i], [2i+1]. *)
  mutable len : int;  (** Stored spans. *)
  mutable dropped : int;  (** Spans past the capacity, not stored. *)
}

val now : unit -> float
(** [Pop_runtime.Clock.now]. *)

val start_cell : threads:int -> capacity:int -> local array
(** Fresh locals for tids [0 .. threads-1], each storing at most
    [capacity] spans, made current for {!local}. Call before creating
    the traced structure. *)

val local : int -> local
(** The current cell's local for a tid. *)

val calibrate : unit -> unit
(** Measure {!empty_span_s} (median of back-to-back clock reads) and
    {!recorded_span_s} (the cost one recorded child span adds to its
    parent, timed on this module's own recording path). *)

val empty_span_s : unit -> float

val recorded_span_s : unit -> float

val op_begin : local -> unit
(** Start a set operation; decides whether it is sampled. *)

val op_end : local -> float -> float -> unit
(** [op_end l t0 t1] with the operation's own clock reads: stores the
    op span and adds its self time (span minus child spans, minus the
    calibrated recording cost) when sampled. *)

val child : local -> kind -> float -> unit
(** [child l kind t0]: close a child span begun at [t0] (sampled
    operations only). *)

val retire : local -> float -> engine_work:bool -> unit
(** [retire l t0 ~engine_work]: close a [retire] span begun at [t0],
    classifying it as fast path or pass. Called for every [retire]. *)

val add_cell : label:string -> t_end:float -> counters:(string * int) list -> local array -> unit
(** Append a cell's stored spans and end-of-cell counters to the
    export buffer. *)

val write : string -> meta:(string * string) list -> unit
(** Write everything added so far as one Chrome trace-event file. *)
