(** The uniform ordered-set-of-ints interface all six set structures
    implement, for any SMR algorithm.

    Concurrency contract: [create], [size_seq], [keys_seq] and
    [check_invariants] are single-threaded (quiescent) operations;
    everything taking a [ctx] is called only by the thread that
    registered it; [insert]/[delete]/[contains] from different contexts
    may run in parallel. *)

module type SET = sig
  val name : string
  (** Data structure name, e.g. ["hml"]. *)

  val smr_name : string
  (** Underlying reclamation scheme, e.g. ["hp-pop"]. *)

  type t

  type ctx

  val create :
    Pop_core.Smr_config.t -> Ds_config.t -> hub:Pop_runtime.Softsignal.t -> t

  val register : t -> tid:int -> ctx

  val insert : ctx -> int -> bool
  (** [true] iff the key was absent and is now present. *)

  val delete : ctx -> int -> bool
  (** [true] iff the key was present and is now absent. *)

  val contains : ctx -> int -> bool

  val poll : ctx -> unit
  (** Serve soft signals between operations. *)

  val stall : ?wake:(unit -> bool) -> ctx -> seconds:float -> polling:bool -> unit
  (** Simulate a delayed thread stuck inside an operation: pin the
      current epoch/reservations for [seconds]. With [polling], the
      thread keeps serving pings from its stall (a descheduled thread
      that gets scheduled on signal delivery); without, it is deaf until
      the stall ends. The stall also ends early once [wake ()] returns
      [true] (default: never) — the harness passes its stop flag so a
      deaf thread cannot outlive the run. *)

  val crash : ctx -> unit
  (** Simulate a thread dying mid-operation: open an operation, pin a
      node like {!stall} would, then abandon everything — no [end_op],
      no [flush], no [deregister]. The context must never be used again;
      its reservations stay raised and its soft-signal slot stays
      registered but deaf forever, so peers only make progress through
      the handshake timeout / failure-detector path. The pin is
      read-only, so the set's contents are unaffected. *)

  val flush : ctx -> unit
  (** Best-effort drain of the thread's retire list. *)

  val deregister : ctx -> unit

  val size_seq : t -> int

  val keys_seq : t -> int list
  (** Present keys in ascending order. *)

  val check_invariants : t -> unit
  (** Raise [Failure] on any structural-invariant violation. *)

  val heap_live : t -> int

  val heap_uaf : t -> int

  val heap_double_free : t -> int

  val smr_unreclaimed : t -> int

  val smr_stats : t -> Pop_core.Smr_stats.t

  val smr_violations : t -> (string * int) list
  (** Per-category SmrSan violation tallies
      ({!Pop_core.Smr_typed.S.violation_breakdown}): empty when the
      structure was built on the plain typed facade, one row per
      category when built on the sanitized one. *)
end
