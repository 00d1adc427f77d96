(** The data-structure shell: heap + SMR construction, the operation
    wrapper that restarts on NBR neutralization, ping-serving lock
    acquisition, and every harness-facing entry point of {!Set_intf.SET}
    and {!Queue_intf.QUEUE} that is not the algorithm itself.

    Everything is written against the typed facade
    {!Pop_core.Smr_typed.S}: the operation brackets here are the only
    place a data structure's handle changes typestate, so the wrappers
    hand the body an [active] handle and take care of closing it. *)

open Pop_runtime
open Pop_core
module Heap = Pop_sim.Heap

let size_seq iter_seq s =
  let c = ref 0 in
  iter_seq s (fun _ -> incr c);
  !c

let keys_seq iter_seq s =
  let acc = ref [] in
  iter_seq s (fun k -> acc := k :: !acc);
  List.sort Int.compare !acc

module Make (T : Smr_typed.S) = struct
  type 'p base = { heap : 'p Heap.t; smr : 'p T.t }

  type ('p, 's) set = { base : 'p base; st : 's }

  type ('p, 's, 'l) ctx = {
    st : 's;
    h : ('p, Smr_typed.idle) T.handle;
    sl : T.slot array;
    loc : 'l;
  }

  let make_base scfg dcfg hub payload =
    Ds_config.validate dcfg;
    let heap = Heap.create ~max_threads:scfg.Smr_config.max_threads ~payload () in
    { heap; smr = T.create scfg hub heap }

  let attach (s : (_, _) set) ~tid loc =
    { st = s.st; h = T.register s.base.smr ~tid; sl = T.slots s.base.smr; loc }

  (* Run one operation: start/end bracketing plus restart-on-neutralize.
     Only NBR ever raises [Smr_typed.Restart]. *)
  let with_op h f =
    let rec go () =
      let a = T.start_op h in
      match f a with
      | r ->
          ignore (T.end_op a);
          r
      | exception Smr_typed.Restart -> go ()
    in
    go ()

  (* Spinlock acquisition that keeps serving soft signals: a thread
     spinning on a lock must still publish reservations (or be
     neutralized), or the lock holder's reclamation pass deadlocks. *)
  let lock_serving c l =
    if not (Spinlock.try_lock l) then begin
      let b = Backoff.make () in
      while not (Spinlock.try_lock l) do
        T.poll c;
        Backoff.once b
      done
    end

  module Shell = struct
    let smr_name = T.name

    let register s ~tid = attach s ~tid ()

    let poll ctx = T.poll ctx.h

    let flush ctx = T.flush ctx.h

    let deregister ctx = T.deregister ctx.h

    let heap_live s = Heap.live_nodes s.base.heap

    let heap_uaf s = Heap.uaf_count s.base.heap

    let heap_double_free s = Heap.double_free_count s.base.heap

    let smr_unreclaimed s = T.unreclaimed s.base.smr

    let smr_stats s = T.stats s.base.smr

    let smr_violations s = T.violation_breakdown s.base.smr
  end

  let stall pin ?(wake = fun () -> false) ctx ~seconds ~polling =
    let t0 = Clock.now () in
    let rec hold () =
      let a = T.start_op ctx.h in
      match
        pin ctx a;
        while Clock.elapsed t0 < seconds && not (wake ()) do
          if polling then T.poll a;
          Unix.sleepf 0.0005
        done
      with
      | () -> ignore (T.end_op a)
      | exception Smr_typed.Restart ->
          (* NBR neutralized the stalled thread — that is precisely how
             NBR stays robust; resume stalling for the remaining time. *)
          if Clock.elapsed t0 < seconds && not (wake ()) then hold () else ()
    in
    hold ()

  (* An NBR neutralization that lands during the pin is swallowed: a
     dead thread cannot honour the restart protocol either, which is
     exactly the case DEBRA+-style recovery must tolerate. *)
  let crash pin ctx =
    let a = T.start_op ctx.h in
    try pin ctx a with Smr_typed.Restart -> ()
end
