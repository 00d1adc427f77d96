(** The benchmark's driver loop: cells, checks and metrics. One loop
    serves the untraced and the traced run; they differ only in the set
    module a cell is built from ([Dispatch.set_module], or the same
    [Pop_ds] functor over [Smr_typed.Of (Timed.Make (scheme))]). *)

type workload = {
  name : string;
  ds : Pop_harness.Dispatch.ds_kind;  (** [HML] or [HMHT] when traced. *)
  key_range : int;  (** Keys [0, key_range), prefilled to half. *)
  mix : Pop_harness.Workload.mix;
  stall : bool;
      (** Worker 0 stalls inside an operation, serving pings, from 10%
          of each window to its end. *)
  reps : int;  (** Rounds over the schemes in an untraced run. *)
}

val workloads : workload list
(** [read-mostly], [update-heavy], [stalled-reader]; see README.md. *)

val find_workload : string -> workload option

val schemes : Pop_harness.Dispatch.smr_kind list
(** The paper's three: hp-pop, he-pop, epoch-pop. *)

type metric = { name : string; value : float; unit : string; samples : int }

type result = {
  attempted : int;  (** Operations run, over every cell. *)
  failed : int;  (** Operations of cells that failed a check. *)
  metrics : metric list;
}

val run :
  ?schemes:Pop_harness.Dispatch.smr_kind list ->
  ?reps:int ->
  ?say:(string -> unit) ->
  workload ->
  seed:int ->
  seconds:float ->
  trace:bool ->
  result
(** Generate the inputs from [seed], run [reps] rounds (default: the
    workload's, halved when [trace]) of one cell per scheme — two, one
    untraced and one traced, when [trace] — splitting [seconds] evenly
    between the cells' windows, check every cell, and return the
    end-to-end metrics, or the per-layer ones when [trace]. Traced
    cells are added to {!Trace}'s export. [say] (default
    [print_string]) gets the human-readable report. *)
