open Pop_runtime
open Pop_core
module Heap = Pop_sim.Heap

let name = "cadence"

let no_id = min_int

let tick_interval = 0.002

type 'a t = {
  cfg : Smr_config.t;
  hub : Softsignal.t;
  heap : 'a Heap.t;
  res : Reservations.t; (* local rows are the visible table (plain stores) *)
  hs : Handshake.t;
  c : Counters.t;
  eng : 'a Reclaimer.t;
  tick : int Atomic.t;
  tick_lock : bool Atomic.t;
  mutable last_tick_time : float; (* racy; only gates the tick attempt *)
}

type 'a tctx = {
  g : 'a t;
  tid : int;
  port : Softsignal.port;
  pending : int Atomic.t; (* the port's ping flag, tested inline by [read] *)
  rows : int array;
  base : int; (* index of this thread's slot 0 in [rows] *)
  rl : 'a Reclaimer.local;
  mutable op_counter : int;
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
    tick = Atomic.make 2;
    tick_lock = Atomic.make false;
    last_tick_time = Clock.now ();
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
      rows = Reservations.local_block g.res;
      base = Reservations.local_base g.res ~tid;
      rl = Reclaimer.register g.eng ~tid ~scratch_slots:nres;
      op_counter = 0;
    }
  in
  (* The "context switch": an acknowledgement, whose seq_cst increment is
     the barrier that orders the thread's earlier plain reservations. *)
  Softsignal.set_handler port (fun () ->
      Handshake.ack g.hs ~tid);
  ctx

(* The auxiliary-thread cadence: the first thread to notice the interval
   elapsed runs a barrier round — this cost is paid at a fixed rate even
   in workloads that never reclaim. *)
let maybe_tick ctx =
  let g = ctx.g in
  if Clock.elapsed g.last_tick_time >= tick_interval then
    if Atomic.compare_and_set g.tick_lock false true then begin
      if Clock.elapsed g.last_tick_time >= tick_interval then begin
        (* Only a clean round is a real barrier: a timed-out peer never
           acknowledged, so its reservation stores may be unordered and the
           tick must not advance. The clock still resets, so a deaf peer
           costs one failed round per interval, not a ping storm. *)
        if Handshake.round g.hs ~port:ctx.port = 0 then begin
          Atomic.incr g.tick;
          Reclaimer.invalidate g.eng
        end;
        g.last_tick_time <- Clock.now ()
      end;
      Atomic.set g.tick_lock false
    end

let start_op ctx =
  ctx.op_counter <- ctx.op_counter + 1;
  (* Amortize the clock read. *)
  if ctx.op_counter land 0x3f = 0 then maybe_tick ctx

let end_op ctx = Reservations.clear_local ctx.g.res ~tid:ctx.tid

let poll ctx = Softsignal.poll ctx.port

(* Plain store to the visible SWMR row — the barrier rounds make it
   globally visible within one tick. *)
let rec read ctx slot addr proj =
  let v = Atomic.get addr in
  let n = proj v in
  Array.unsafe_set ctx.rows (ctx.base + slot) n.Heap.id;
  if Atomic.get ctx.pending = 1 then Softsignal.poll ctx.port;
  if Atomic.get addr == v then v else read ctx slot addr proj

let check ctx n = if n.Heap.seq land 1 = 1 then Heap.check_access ctx.g.heap n

let alloc ctx = Heap.alloc ctx.g.heap ~tid:ctx.tid ~birth_era:0

(* Free nodes retired at least two ticks ago (a complete barrier round
   has made every reservation that could cover them visible) and not
   found in the visible reservation table. Cadence has no handshake per
   pass — reservation visibility is tick-delayed — but the engine's
   cache is effectively tick-stamped: [maybe_tick] calls
   [Reclaimer.invalidate] exactly when the tick advances, so an
   unchanged generation means the snapshot was collected in the current
   tick. A cache-served pass frees nothing, so it cannot act on a
   reservation the barrier has not yet made visible, and a fresh pass at
   any time is safe because the [retire_era + 2 > now] guard keeps
   everything younger than a full barrier round regardless of what the
   table read misses. Triggered passes may therefore reuse the snapshot
   ([~force] passed through); only the end-of-run drain forces a fresh
   collect. *)
let reclaim ctx ~force =
  let g = ctx.g in
  if force then begin
    (* End-of-run drain: run a round now instead of waiting a tick (two
       tick bumps, but only when the round was clean — see maybe_tick). *)
    if Handshake.round g.hs ~port:ctx.port = 0 then begin
      Atomic.incr g.tick;
      Atomic.incr g.tick;
      Reclaimer.invalidate g.eng
    end
  end;
  let now = Atomic.get g.tick in
  ignore
    (Reclaimer.scan ~force ~kind:Reclaimer.Plain
       ~collect:(fun scratch -> Reservations.collect_local g.res scratch)
       ~except:no_id
       ~keep:(fun n ->
         n.Heap.retire_era + 2 > now || Id_set.mem (Reclaimer.snapshot ctx.rl) n.Heap.id)
       ctx.rl)

let retire ctx n =
  n.Heap.retire_era <- Atomic.get ctx.g.tick;
  Reclaimer.retire ctx.rl n;
  if Reclaimer.due ctx.rl then begin
    maybe_tick ctx;
    reclaim ctx ~force:false
  end

let free_unpublished ctx n = Reclaimer.free_unpublished ctx.rl n

let enter_write_phase _ctx _nodes = ()

let flush ctx = if not (Reclaimer.is_empty ctx.rl) then reclaim ctx ~force:true

let deregister ctx =
  Reservations.clear_local ctx.g.res ~tid:ctx.tid;
  (* Scan survivors go to the orphanage; a peer's next pass adopts them. *)
  Reclaimer.donate ctx.rl;
  Softsignal.deregister ctx.port

let unreclaimed g = Counters.unreclaimed g.c

let stats g = Counters.snapshot ~heap:g.heap ~hs:g.hs g.c ~hub:g.hub ~epoch:(Atomic.get g.tick)
