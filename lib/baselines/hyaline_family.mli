(** The batch reference-counting skeleton shared by hyaline-1 and
    hyaline-1s (Nikolaev & Ravindran).

    Retired nodes accumulate in the {!Pop_core.Reclaimer} buffer until
    the threshold trips; the retirer then forms one batch, ENLISTs it on
    every slot observed active, and adds the count of successful pushes
    to the batch's [refs] in one deferred adjustment. Each leaver
    TRAVERSEs its charged batches, and the unique 0-crossing frees the
    batch.

    Hyaline-1S is Hyaline-1 plus one birth-era guard, {!t.guard}, fixed
    at {!create}. Under it [start_op] publishes the thread's era (fenced,
    before going active) and [end_op] clears it; a batch formation bumps
    the global era and records the batch's minimum birth era, and ENLIST
    skips any slot whose published era is older than that minimum; and
    [stats] reports the era as [epoch] (0 without the guard). Each
    scheme keeps its own [read] and [name]. *)

type 'a batch = { nodes : 'a Pop_sim.Heap.node array; refs : int Atomic.t }
(** [refs] starts at 0 and is adjusted once, by the retirer, with the
    number of slots the batch was enlisted on. *)

type 'a slot = Inactive | Active of 'a batch list  (** Batches charged since entering. *)

type 'a t = {
  cfg : Pop_core.Smr_config.t;
  hub : Pop_runtime.Softsignal.t;
  heap : 'a Pop_sim.Heap.t;
  slots : 'a slot Atomic.t array;
  eras : int Atomic.t array;  (** Each thread's published era (guard only). *)
  era : int Atomic.t;  (** The global era; it stays 1 without the guard. *)
  c : Pop_core.Counters.t;
  eng : 'a Pop_core.Reclaimer.t;
  guard : bool;
}

type 'a tctx = {
  g : 'a t;
  tid : int;
  port : Pop_runtime.Softsignal.port;
  rl : 'a Pop_core.Reclaimer.local;
}

val create :
  guard:bool -> Pop_core.Smr_config.t -> Pop_runtime.Softsignal.t -> 'a Pop_sim.Heap.t -> 'a t

val register : 'a t -> tid:int -> 'a tctx

val start_op : 'a tctx -> unit

val end_op : 'a tctx -> unit
(** LEAVE: go inactive and TRAVERSE every batch charged while active. *)

val poll : 'a tctx -> unit

val check : 'a tctx -> 'a Pop_sim.Heap.node -> unit

val alloc : 'a tctx -> 'a Pop_sim.Heap.node

val retire : 'a tctx -> 'a Pop_sim.Heap.node -> unit

val free_unpublished : 'a tctx -> 'a Pop_sim.Heap.node -> unit

val enter_write_phase : 'a tctx -> 'a Pop_sim.Heap.node array -> unit

val flush : 'a tctx -> unit

val deregister : 'a tctx -> unit

val unreclaimed : 'a t -> int

val stats : 'a t -> Pop_core.Smr_stats.t
