open Pop_runtime
module Heap = Pop_sim.Heap

type publication = Eager | Barrier | Ping

type reservation = Ids | Eras

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
}

let create ~publication ~reservation (cfg : Smr_config.t) hub heap =
  Smr_config.validate cfg;
  let c = Counters.create cfg.max_threads in
  let none = match reservation with Ids -> min_int | Eras -> -1 in
  {
    cfg;
    hub;
    heap;
    res = Reservations.create ~max_threads:cfg.max_threads ~slots:cfg.max_hp ~none;
    hs = Handshake.create cfg hub;
    c;
    eng = Reclaimer.create cfg ~heap ~counters:c;
    epoch = Atomic.make 1;
    publication;
    reservation;
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
      rl = Reclaimer.register g.eng ~tid ~scratch_slots:(2 * g.cfg.max_threads * g.cfg.max_hp);
    }
  in
  (match g.publication with
  | Eager -> ()
  | Barrier ->
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

let alloc ctx =
  let birth_era = match ctx.g.reservation with Ids -> 0 | Eras -> Atomic.get ctx.g.epoch in
  Heap.alloc ctx.g.heap ~tid:ctx.tid ~birth_era

(* The reservation table a fresh pass scans. Era schemes first advance
   the era, so a read that starts after the collect reserves an era
   later than every node already retired and cannot pin it. *)
let collect ctx scratch =
  let g = ctx.g in
  (match g.reservation with
  | Ids -> ()
  | Eras ->
      ignore (Atomic.fetch_and_add g.epoch 1);
      Reclaimer.invalidate g.eng);
  match g.publication with
  | Eager -> Reservations.collect_shared g.res scratch
  | Barrier ->
      (* Timeouts need no fallback: the collect reads every peer's
         private row racily, a timed-out peer's included. *)
      ignore (Handshake.round g.hs ~port:ctx.port);
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

(* Algorithm 2, RECLAIMHPFREEABLE (Ids), or the era-interval test of
   Algorithms 4/5 (Eras). The handshake lives in [collect], so a
   cache-served pass skips the ping round entirely. *)
let reclaim ?force ctx =
  let g = ctx.g in
  let kind = match g.publication with Eager -> Reclaimer.Plain | Barrier | Ping -> Reclaimer.Pop in
  let collect = collect ctx and except = Reservations.none g.res in
  ignore
    (match g.reservation with
    | Ids ->
        Reclaimer.scan ?force ~kind ~collect ~except
          ~keep:(fun n -> Id_set.mem (Reclaimer.snapshot ctx.rl) n.Heap.id)
          ctx.rl
    | Eras -> Reclaimer.scan_eras ?force ~kind ~collect ~except ctx.rl)

let retire ctx n =
  (match ctx.g.reservation with
  | Ids -> ()
  | Eras -> n.Heap.retire_era <- Atomic.get ctx.g.epoch);
  Reclaimer.retire ctx.rl n;
  if Reclaimer.due ctx.rl then reclaim ctx

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

let stats g =
  let epoch = match g.reservation with Ids -> 0 | Eras -> Atomic.get g.epoch in
  Counters.snapshot ~heap:g.heap ~hs:g.hs g.c ~hub:g.hub ~epoch
