open Pop_runtime
module Heap = Pop_sim.Heap

let name = "he-pop"

let no_era = -1

type 'a t = {
  cfg : Smr_config.t;
  hub : Softsignal.t;
  heap : 'a Heap.t;
  res : Reservations.t;
  hs : Handshake.t;
  c : Counters.t;
  eng : 'a Reclaimer.t;
  epoch : int Atomic.t;
}

type 'a tctx = {
  g : 'a t;
  tid : int;
  port : Softsignal.port;
  pending : int Atomic.t; (* the port's ping flag, tested inline by [read] *)
  rows : int array; (* every private era row (Reservations.local_block) *)
  base : int; (* index of this thread's slot 0 in [rows] *)
  rl : 'a Reclaimer.local;
}

let create cfg hub heap =
  Smr_config.validate cfg;
  let c = Counters.create cfg.max_threads in
  {
    cfg;
    hub;
    heap;
    res = Reservations.create ~max_threads:cfg.max_threads ~slots:cfg.max_hp ~none:no_era;
    hs = Handshake.create cfg hub;
    c;
    eng = Reclaimer.create cfg ~heap ~counters:c;
    epoch = Atomic.make 1;
  }

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
      (* 2x: room for the shared table plus racy local-row copies of
         timed-out peers (the bounded handshake's fallback). *)
      rl = Reclaimer.register g.eng ~tid ~scratch_slots:(2 * g.cfg.max_threads * g.cfg.max_hp);
    }
  in
  Pop_round.set_handler port g.res g.eng g.hs;
  ctx

let start_op _ctx = ()

let end_op ctx = Reservations.clear_local ctx.g.res ~tid:ctx.tid

let poll ctx = Softsignal.poll ctx.port

(* Algorithm 5, READ: reserve the current era locally. Unlike original
   hazard eras (Algorithm 4 line 14) no fence is needed when the era
   advanced mid-read — the reservation stays private until pinged. *)
let rec read_from ctx slot addr proj old_era =
  let v = Atomic.get addr in
  let e = Atomic.get ctx.g.epoch in
  if Atomic.get ctx.pending = 1 then Softsignal.poll ctx.port;
  if e = old_era then v
  else begin
    (* Era changed mid-read: re-reserve — but privately, with a plain
       store; this is the fence original HE pays and POP does not. *)
    Array.unsafe_set ctx.rows (ctx.base + slot) e;
    read_from ctx slot addr proj e
  end

let read ctx slot addr proj =
  read_from ctx slot addr proj (Array.unsafe_get ctx.rows (ctx.base + slot))

let check ctx n = if n.Heap.seq land 1 = 1 then Heap.check_access ctx.g.heap n

let alloc ctx = Heap.alloc ctx.g.heap ~tid:ctx.tid ~birth_era:(Atomic.get ctx.g.epoch)

(* A node is freeable when no collected era lies within its lifespan —
   a range-emptiness query on the sorted snapshot instead of the former
   O(k) rescan of the raw table per node. *)
let reclaim ?force ctx =
  let g = ctx.g in
  let collect scratch =
    ignore (Atomic.fetch_and_add g.epoch 1);
    Reclaimer.invalidate g.eng;
    Pop_round.collect g.res g.hs ~port:ctx.port scratch
  in
  ignore (Reclaimer.scan_eras ?force ~kind:Reclaimer.Pop ~collect ~except:no_era ctx.rl)

let retire ctx n =
  n.Heap.retire_era <- Atomic.get ctx.g.epoch;
  Reclaimer.retire ctx.rl n;
  if Reclaimer.due ctx.rl then reclaim ctx

let free_unpublished ctx n = Reclaimer.free_unpublished ctx.rl n

let enter_write_phase _ctx _nodes = ()

let flush ctx = if not (Reclaimer.is_empty ctx.rl) then reclaim ~force:true ctx

let deregister ctx =
  Reservations.clear_local ctx.g.res ~tid:ctx.tid;
  Reservations.clear_shared ctx.g.res ~tid:ctx.tid;
  (* Scan survivors go to the orphanage; a peer's next pass adopts them. *)
  Reclaimer.donate ctx.rl;
  Softsignal.deregister ctx.port

let unreclaimed g = Counters.unreclaimed g.c

let stats g = Counters.snapshot ~heap:g.heap ~hs:g.hs g.c ~hub:g.hub ~epoch:(Atomic.get g.epoch)
