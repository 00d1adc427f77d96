open Pop_runtime
module Heap = Pop_sim.Heap

type publication = Eager | Barrier | Ping | Tick

type reservation = Ids | Eras | Intervals

type 'a t = {
  cfg : Smr_config.t;
  hub : Softsignal.t;
  heap : 'a Heap.t;
  res : Reservations.t;
  hs : Handshake.t;
  c : Counters.t;
  eng : 'a Reclaimer.t;
  epoch : int Atomic.t;
  publication : publication;
  reservation : reservation;
  tick_lock : bool Atomic.t;
  mutable last_tick_time : float;
}

type 'a tctx = {
  g : 'a t;
  tid : int;
  port : Softsignal.port;
  pending : int Atomic.t;
  rows : int array;
  base : int;
  srow : int Atomic.t array;
  rl : 'a Reclaimer.local;
  mutable count : int;
}

let tick_interval = 0.002

let create ~publication ~reservation (cfg : Smr_config.t) hub heap =
  Smr_config.validate cfg;
  let c = Counters.create cfg.max_threads in
  let slots, none =
    match reservation with
    | Ids -> (cfg.max_hp, min_int)
    | Eras -> (cfg.max_hp, -1)
    | Intervals -> (2, max_int)
  in
  {
    cfg;
    hub;
    heap;
    res = Reservations.create ~max_threads:cfg.max_threads ~slots ~none;
    hs = Handshake.create cfg hub;
    c;
    eng = Reclaimer.create cfg ~heap ~counters:c;
    epoch = Atomic.make 1;
    publication;
    reservation;
    tick_lock = Atomic.make false;
    last_tick_time = Clock.now ();
  }

let set_pop_handler port res eng hs =
  let tid = Softsignal.tid port in
  Softsignal.set_handler port (fun () ->
      Reservations.publish res ~tid;
      Reclaimer.invalidate eng;
      Handshake.ack hs ~tid)

let register g ~tid =
  let port = Softsignal.register g.hub ~tid in
  let ctx =
    {
      g;
      tid;
      port;
      pending = Softsignal.pending_cell port;
      rows = Reservations.local_block g.res;
      base = Reservations.local_base g.res ~tid;
      srow = Reservations.shared_row g.res ~tid;
      (* 2x: room for the shared table plus racy local-row copies of
         timed-out peers (the bounded handshake's fallback). *)
      rl =
        Reclaimer.register g.eng ~tid
          ~scratch_slots:(2 * g.cfg.max_threads * Reservations.slots g.res);
      count = 0;
    }
  in
  (match g.publication with
  | Eager -> ()
  | Barrier | Tick ->
      (* The "membarrier": the ack's seq_cst increment orders the
         thread's earlier plain reservation stores, newly visible
         reservation state, so cached snapshots go stale. *)
      Softsignal.set_handler port (fun () ->
          Reclaimer.invalidate g.eng;
          Handshake.ack g.hs ~tid)
  | Ping -> set_pop_handler port g.res g.eng g.hs);
  ctx

let start_op _ctx = ()

let poll ctx = Softsignal.poll ctx.port

let check ctx n = if n.Heap.seq land 1 = 1 then Heap.check_access ctx.g.heap n

let advance g =
  ignore (Atomic.fetch_and_add g.epoch 1);
  Reclaimer.invalidate g.eng

let alloc ctx = Heap.alloc ctx.g.heap ~tid:ctx.tid ~birth_era:(Atomic.get ctx.g.epoch)

(* A barrier round; only a clean one is a real barrier. A timed-out
   peer never acknowledged, so its reservation stores may be unordered
   and the tick must not advance. *)
let tick_round ctx ~ticks =
  let g = ctx.g in
  if Handshake.round g.hs ~port:ctx.port = 0 then begin
    ignore (Atomic.fetch_and_add g.epoch ticks);
    Reclaimer.invalidate g.eng
  end

(* The auxiliary-thread cadence: the first thread to notice the interval
   elapsed runs a barrier round, a cost paid at a fixed rate even in
   workloads that never reclaim. The clock resets after a failed round
   too, so a deaf peer costs one round per interval, not a ping storm. *)
let maybe_tick ctx =
  let g = ctx.g in
  if Clock.elapsed g.last_tick_time >= tick_interval then
    if Atomic.compare_and_set g.tick_lock false true then begin
      if Clock.elapsed g.last_tick_time >= tick_interval then begin
        tick_round ctx ~ticks:1;
        g.last_tick_time <- Clock.now ()
      end;
      Atomic.set g.tick_lock false
    end

(* The reservation table a fresh pass scans. Era schemes first advance
   the era, so a read that starts after the collect reserves an era
   later than every node already retired and cannot pin it. *)
let collect ctx scratch =
  let g = ctx.g in
  (match g.reservation with Eras -> advance g | Ids | Intervals -> ());
  match g.publication with
  | Eager -> Reservations.collect_shared g.res scratch
  | Barrier ->
      (* Timeouts need no fallback: the collect reads every peer's
         private row racily, a timed-out peer's included. *)
      ignore (Handshake.round g.hs ~port:ctx.port);
      Reservations.collect_local g.res scratch
  | Tick ->
      (* No round: the tick guard in [reclaim] keeps what the last
         barrier round has not yet made visible. *)
      Reservations.collect_local g.res scratch
  | Ping ->
      let timeouts = Handshake.round g.hs ~port:ctx.port in
      Reservations.publish g.res ~tid:ctx.tid;
      let k = ref (Reservations.collect_shared g.res scratch) in
      (* A timed-out peer never ran its handler, so its shared row is stale. *)
      if timeouts > 0 then
        for tid = 0 to Reservations.max_threads g.res - 1 do
          if Handshake.timed_out g.hs ~port:ctx.port tid then
            k := Reservations.append_local_row g.res ~tid ~into:scratch ~pos:!k
        done;
      !k

let reserved ctx n = Id_set.mem (Reclaimer.snapshot ctx.rl) n.Heap.id

(* Algorithm 2, RECLAIMHPFREEABLE (Ids), the era-interval test of
   Algorithms 4/5 (Eras), or IBR's interval test (Intervals). The
   handshake lives in [collect], so a cache-served pass skips the ping
   round entirely.

   Under [Tick] a node retired at tick [r] is freed only once the tick
   reads [r + 2]: a complete barrier round then separates its retirement
   from the scan, so every reservation that could cover it is visible in
   the private rows. [now] must be read before the collect, never inside
   [keep]: a tick that advanced between the collect and the test would
   free a node that a reservation the collect missed (not yet ordered by
   a round) still covers. The engine's cache is tick-stamped for free:
   a clean round invalidates it, and a cache-served pass frees nothing. *)
let reclaim ~force ctx =
  let g = ctx.g in
  (match (g.publication, g.reservation) with
  | Tick, _ -> if force then tick_round ctx ~ticks:2 else maybe_tick ctx
  | _, Intervals when force -> advance g
  | _ -> ());
  let kind =
    match g.publication with Eager | Tick -> Reclaimer.Plain | Barrier | Ping -> Reclaimer.Pop
  in
  let collect scratch = collect ctx scratch and except = Reservations.none g.res in
  ignore
    (match (g.reservation, g.publication) with
    | Ids, Tick ->
        let now = Atomic.get g.epoch in
        Reclaimer.scan ~force ~kind ~collect ~except
          ~keep:(fun n -> n.Heap.retire_era + 2 > now || reserved ctx n)
          ctx.rl
    | Ids, (Eager | Barrier | Ping) ->
        Reclaimer.scan ~force ~kind ~collect ~except ~keep:(fun n -> reserved ctx n) ctx.rl
    | Eras, _ -> Reclaimer.scan_eras ~force ~kind ~collect ~except ctx.rl
    | Intervals, _ -> Reclaimer.scan_intervals ~force ~kind ~collect ctx.rl)

(* IBR keeps its [mod] trigger: with [due], once survivors hold the list
   above the threshold a fresh pass would run after every [epoch_freq]
   allocations, each advance having invalidated the snapshot. *)
let retire ctx n =
  let g = ctx.g in
  n.Heap.retire_era <- Atomic.get g.epoch;
  Reclaimer.retire ctx.rl n;
  match g.reservation with
  | Intervals ->
      if Reclaimer.pending ctx.rl mod Reclaimer.threshold g.eng = 0 then reclaim ~force:false ctx
  | Ids | Eras -> if Reclaimer.due ctx.rl then reclaim ~force:false ctx

let free_unpublished ctx n = Reclaimer.free_unpublished ctx.rl n

let enter_write_phase _ctx _nodes = ()

let flush ctx = if not (Reclaimer.is_empty ctx.rl) then reclaim ~force:true ctx

let deregister ctx =
  Reservations.clear_local ctx.g.res ~tid:ctx.tid;
  Reservations.clear_shared ctx.g.res ~tid:ctx.tid;
  (* Scan survivors go to the orphanage, not the floor: a peer's next
     pass adopts and frees them (the departed thread's own reservations
     are cleared above, so nothing of its is still pinned by it). *)
  Reclaimer.donate ctx.rl;
  Softsignal.deregister ctx.port

let unreclaimed g = Counters.unreclaimed g.c

let stats g = Counters.snapshot ~heap:g.heap ~hs:g.hs g.c ~hub:g.hub ~epoch:(Atomic.get g.epoch)
