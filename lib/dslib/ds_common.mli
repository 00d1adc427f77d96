(** The data-structure shell. A structure over {!Pop_core.Smr_typed.S}
    defines its algorithm and nothing else: its payload and state
    types, [create], its operations, a [pin] and an [iter_seq]. The
    shell owns the two records every structure shares, the operation
    bracket, ping-serving lock acquisition, and every harness-facing
    entry point of {!Set_intf.SET} and {!Queue_intf.QUEUE}.

    The operation typestate transitions live here, so the structures
    only ever see correctly staged handles.

    The shell has two structure-specific parameters, [pin] and
    [iter_seq], passed to {!Make.stall}, {!Make.crash}, {!size_seq} and
    {!keys_seq}. Both are cold-path only: they run in a stall, a crash,
    or a quiescent walk, never inside an operation. The operation bodies stay in each structure and reach
    the state as [ctx.st.x], one load from the context, so no shell
    indirection sits on an operation path. *)

val size_seq : ('s -> (int -> unit) -> unit) -> 's -> int
(** [size_seq iter_seq s] counts the keys [iter_seq s] visits. *)

val keys_seq : ('s -> (int -> unit) -> unit) -> 's -> int list
(** [keys_seq iter_seq s] is the keys [iter_seq s] visits, sorted
    ascending. The sort hides the walk's own order, so a test of
    [keys_seq] checks contents only; each structure's
    [check_invariants] is what checks that its walk is ascending. *)

module Make (T : Pop_core.Smr_typed.S) : sig
  (** One structure's heap and reclamation instance. ['p] is the node
      payload type. *)
  type 'p base = { heap : 'p Pop_sim.Heap.t; smr : 'p T.t }

  (** A structure instance: the shared [base] plus the structure's own
      state ['s] (sentinels, bucket array, ...). *)
  type ('p, 's) set = { base : 'p base; st : 's }

  (** One thread's context: the structure state, the thread's idle
      handle, the reservation slots, and ['l], the thread's own scratch
      ([unit] for most structures). *)
  type ('p, 's, 'l) ctx = {
    st : 's;
    h : ('p, Pop_core.Smr_typed.idle) T.handle;
    sl : T.slot array;
    loc : 'l;
  }

  val make_base :
    Pop_core.Smr_config.t ->
    Ds_config.t ->
    Pop_runtime.Softsignal.t ->
    (int -> 'p) ->
    'p base
  (** [make_base scfg dcfg hub payload] validates [dcfg] and builds the
      heap (fresh nodes get [payload id]) and the SMR instance on it. *)

  val attach : ('p, 's) set -> tid:int -> 'l -> ('p, 's, 'l) ctx
  (** [attach s ~tid loc] registers thread [tid] and pairs its handle
      with the thread-local scratch [loc]. *)

  val with_op :
    ('p, Pop_core.Smr_typed.idle) T.handle ->
    (('p, Pop_core.Smr_typed.active) T.handle -> 'r) ->
    'r
  (** Run one operation: the body gets the freshly opened [active]
      handle, and the bracket closes it — including
      restart-on-neutralize (re-runs the body when it raises
      {!Pop_core.Smr_typed.Restart}). *)

  val lock_serving : ('p, _) T.handle -> Pop_runtime.Spinlock.t -> unit
  (** Spinlock acquisition that keeps serving soft signals: a thread
      spinning on a lock must still publish reservations (or be
      neutralized), or the lock holder's reclamation pass deadlocks. *)

  (** The entry points that need nothing from the structure; every set
      and the queue [include] this. *)
  module Shell : sig
    val smr_name : string

    val register : ('p, 's) set -> tid:int -> ('p, 's, unit) ctx
    (** {!attach} with no thread-local scratch. *)

    val poll : ('p, 's, 'l) ctx -> unit

    val flush : ('p, 's, 'l) ctx -> unit

    val deregister : ('p, 's, 'l) ctx -> unit

    val heap_live : ('p, 's) set -> int

    val heap_uaf : ('p, 's) set -> int

    val heap_double_free : ('p, 's) set -> int

    val smr_unreclaimed : ('p, 's) set -> int

    val smr_stats : ('p, 's) set -> Pop_core.Smr_stats.t

    val smr_violations : ('p, 's) set -> (string * int) list
  end

  val stall :
    (('p, 's, 'l) ctx -> ('p, Pop_core.Smr_typed.active) T.handle -> unit) ->
    ?wake:(unit -> bool) ->
    ('p, 's, 'l) ctx ->
    seconds:float ->
    polling:bool ->
    unit
  (** [stall pin] is {!Set_intf.SET.stall}: open an operation, take
      [pin]'s reservations, and hold them for [seconds] (or until
      [wake ()] turns true). With [polling = false] the thread is deaf
      to pings for the duration. An NBR neutralization restarts the
      pin and the stall goes on. *)

  val crash :
    (('p, 's, 'l) ctx -> ('p, Pop_core.Smr_typed.active) T.handle -> unit) ->
    ('p, 's, 'l) ctx ->
    unit
  (** [crash pin] is {!Set_intf.SET.crash}: open an operation, take
      [pin]'s reservations, and abandon everything — no [end_op], no
      [deregister], and any NBR neutralization raised during the pin is
      swallowed (a dead thread cannot honour the restart protocol). *)
end
