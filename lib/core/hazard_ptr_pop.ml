open Pop_runtime
module Heap = Pop_sim.Heap

let name = "hp-pop"

let no_id = min_int

type 'a t = {
  cfg : Smr_config.t;
  hub : Softsignal.t;
  heap : 'a Heap.t;
  res : Reservations.t;
  hs : Handshake.t;
  c : Counters.t;
  eng : 'a Reclaimer.t;
}

type 'a tctx = {
  g : 'a t;
  tid : int;
  port : Softsignal.port;
  pending : int Atomic.t; (* the port's ping flag, tested inline by [read] *)
  rows : int array; (* every private row (Reservations.local_block) *)
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
    res = Reservations.create ~max_threads:cfg.max_threads ~slots:cfg.max_hp ~none:no_id;
    hs = Handshake.create cfg hub;
    c;
    eng = Reclaimer.create cfg ~heap ~counters:c;
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
      (* 2x: room for the shared table plus racy local-row copies of
         timed-out peers (the bounded handshake's fallback). *)
      rl = Reclaimer.register g.eng ~tid ~scratch_slots:(2 * nres);
    }
  in
  Pop_round.set_handler port g.res g.eng g.hs;
  ctx

let start_op _ctx = ()

let end_op ctx = Reservations.clear_local ctx.g.res ~tid:ctx.tid

let poll ctx = Softsignal.poll ctx.port

(* Algorithm 1, READ: reserve locally (plain store, no store-load fence),
   then validate that the pointer is unchanged. The flag test between
   reserve and validate is the soft-signal delivery point: a pending
   ping is handled here, and with none pending the test is one load. *)
let rec read ctx slot addr proj =
  let v = Atomic.get addr in
  let n = proj v in
  Array.unsafe_set ctx.rows (ctx.base + slot) n.Heap.id;
  if Atomic.get ctx.pending = 1 then Softsignal.poll ctx.port;
  if Atomic.get addr == v then v else read ctx slot addr proj

let check ctx n = if n.Heap.seq land 1 = 1 then Heap.check_access ctx.g.heap n

let alloc ctx = Heap.alloc ctx.g.heap ~tid:ctx.tid ~birth_era:0

(* Algorithm 2, RECLAIMHPFREEABLE preceded by the handshake. The whole
   handshake lives in the collect closure, so a cache-served pass skips
   the ping round entirely. *)
let reclaim ?force ctx =
  let g = ctx.g in
  ignore
    (Reclaimer.scan ?force ~kind:Reclaimer.Pop
       ~collect:(Pop_round.collect g.res g.hs ~port:ctx.port)
       ~except:no_id
       ~keep:(fun n -> Id_set.mem (Reclaimer.snapshot ctx.rl) n.Heap.id)
       ctx.rl)

let retire ctx n =
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

let stats g = Counters.snapshot ~heap:g.heap ~hs:g.hs g.c ~hub:g.hub ~epoch:0
