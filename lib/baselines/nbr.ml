open Pop_runtime
open Pop_core
module Heap = Pop_sim.Heap

let name = "nbr"

let no_id = min_int

type phase = Quiescent | Read_phase | Write_phase

type 'a t = {
  cfg : Smr_config.t;
  hub : Softsignal.t;
  heap : 'a Heap.t;
  res : Reservations.t; (* write-phase reservations, published eagerly *)
  hs : Handshake.t;
  c : Counters.t;
  eng : 'a Reclaimer.t;
  rounds_started : int Atomic.t;
  rounds_done : int Atomic.t;
  clean_rounds_done : int Atomic.t; (* highest round stamp with zero timeouts *)
  round_active : bool Atomic.t;
}

type 'a tctx = {
  g : 'a t;
  tid : int;
  port : Softsignal.port;
  pending : int Atomic.t; (* the port's ping flag, tested inline by [read] *)
  rl : 'a Reclaimer.local;
  mutable round_stamp : int; (* clean stamp captured by the last collect *)
  mutable phase : phase;
  mutable neutralized : bool;
  mutable published_slots : int;
}

let create cfg hub heap =
  Smr_config.validate cfg;
  let c = Counters.create cfg.max_threads in
  {
    cfg;
    hub;
    heap;
    res = Reservations.create ~max_threads:cfg.max_threads ~slots:cfg.max_hp ~none:no_id;
    hs = Handshake.create cfg hub;
    c;
    eng = Reclaimer.create cfg ~heap ~counters:c;
    rounds_started = Atomic.make 0;
    rounds_done = Atomic.make 0;
    clean_rounds_done = Atomic.make 0;
    round_active = Atomic.make false;
  }

let register g ~tid =
  let port = Softsignal.register g.hub ~tid in
  let nres = g.cfg.max_threads * g.cfg.max_hp in
  let ctx =
    {
      g;
      tid;
      port;
      pending = Softsignal.pending_cell port;
      rl = Reclaimer.register g.eng ~tid ~scratch_slots:nres;
      round_stamp = 0;
      phase = Quiescent;
      neutralized = false;
      published_slots = 0;
    }
  in
  (* The "signal handler": neutralize read-phase threads, always ack.
     It runs in the owner thread (from poll), so plain fields are safe. *)
  Softsignal.set_handler port (fun () ->
      if ctx.phase = Read_phase then ctx.neutralized <- true;
      Handshake.ack g.hs ~tid);
  ctx

let clear_published ctx =
  for slot = 0 to ctx.published_slots - 1 do
    Reservations.set_shared ctx.g.res ~tid:ctx.tid ~slot no_id
  done;
  ctx.published_slots <- 0

let start_op ctx =
  ctx.phase <- Read_phase;
  ctx.neutralized <- false

let end_op ctx =
  if ctx.published_slots > 0 then clear_published ctx;
  ctx.phase <- Quiescent

let poll ctx = Softsignal.poll ctx.port

(* Unprotected read; the flag test is the (soft) signal delivery point. A
   neutralized thread raises before touching anything it read, the
   polling analogue of siglongjmp out of the handler. *)
let read ctx _slot addr _proj =
  let v = Atomic.get addr in
  if Atomic.get ctx.pending = 1 then Softsignal.poll ctx.port;
  if ctx.neutralized then begin
    ctx.neutralized <- false;
    Counters.restart ctx.g.c ~tid:ctx.tid;
    if ctx.published_slots > 0 then clear_published ctx;
    raise Smr.Restart
  end;
  v

let check ctx n = if n.Heap.seq land 1 = 1 then Heap.check_access ctx.g.heap n

let alloc ctx = Heap.alloc ctx.g.heap ~tid:ctx.tid ~birth_era:0

let free_unpublished ctx n = Reclaimer.free_unpublished ctx.rl n

(* Publish reservations for the nodes the write phase will dereference,
   then make sure no neutralization raced the publication. *)
let enter_write_phase ctx nodes =
  let n = Array.length nodes in
  if n > ctx.g.cfg.max_hp then invalid_arg "Nbr.enter_write_phase: too many nodes";
  for slot = 0 to n - 1 do
    Reservations.set_shared ctx.g.res ~tid:ctx.tid ~slot nodes.(slot).Heap.id
  done;
  (* The [set_shared] stores above are the one fence per write phase, not
     per read — NBR's fast read path. *)
  ctx.published_slots <- n;
  if Atomic.get ctx.pending = 1 then Softsignal.poll ctx.port;
  if ctx.neutralized then begin
    ctx.neutralized <- false;
    Counters.restart ctx.g.c ~tid:ctx.tid;
    clear_published ctx;
    raise Smr.Restart
  end;
  ctx.phase <- Write_phase

(* One neutralization round; concurrent reclaimers coalesce (NBR+).
   Returns the latest {e clean} round stamp: a peer that timed out was
   never neutralized and may still hold references to anything, so a
   dirty round certifies no new nodes — reclaimers keep freeing up to
   the last clean stamp and garbage grows until the peer responds. *)
let ensure_round ctx =
  let g = ctx.g in
  let r0 = Atomic.get g.rounds_done in
  if Atomic.compare_and_set g.round_active false true then begin
    let s = Atomic.fetch_and_add g.rounds_started 1 + 1 in
    if Handshake.round g.hs ~port:ctx.port = 0 then Atomic.set g.clean_rounds_done s;
    Atomic.set g.rounds_done s;
    Atomic.set g.round_active false;
    (* A completed round is new visibility: stale snapshot caches must
       not outlive it. *)
    Reclaimer.invalidate g.eng;
    Atomic.get g.clean_rounds_done
  end
  else begin
    let b = Backoff.make () in
    while Atomic.get g.rounds_done <= r0 do
      Softsignal.poll ctx.port;
      Backoff.once b
    done;
    Atomic.get g.clean_rounds_done
  end

let reclaim ?force ctx =
  let g = ctx.g in
  let collect scratch =
    ctx.round_stamp <- ensure_round ctx;
    Reservations.collect_shared g.res scratch
  in
  ignore
    (Reclaimer.scan ?force ~kind:Reclaimer.Pop ~collect ~except:no_id
       ~keep:(fun n ->
         (* retire_era holds the round stamp: only nodes retired before
            the collect's clean round began were certainly unlinked
            before its pings. *)
         n.Heap.retire_era >= ctx.round_stamp
         || Id_set.mem (Reclaimer.snapshot ctx.rl) n.Heap.id)
       ctx.rl)

let retire ctx n =
  n.Heap.retire_era <- Atomic.get ctx.g.rounds_started;
  Reclaimer.retire ctx.rl n;
  if Reclaimer.due ctx.rl then reclaim ctx

let flush ctx = if not (Reclaimer.is_empty ctx.rl) then reclaim ~force:true ctx

let deregister ctx =
  clear_published ctx;
  ctx.phase <- Quiescent;
  (* Scan survivors go to the orphanage; a peer's next pass adopts them. *)
  Reclaimer.donate ctx.rl;
  Softsignal.deregister ctx.port

let unreclaimed g = Counters.unreclaimed g.c

let stats g = Counters.snapshot ~heap:g.heap ~hs:g.hs g.c ~hub:g.hub ~epoch:(Atomic.get g.rounds_done)
