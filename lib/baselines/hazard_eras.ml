open Pop_runtime
open Pop_core
module Heap = Pop_sim.Heap

let name = "he"

let no_era = -1

type 'a t = {
  cfg : Smr_config.t;
  hub : Softsignal.t;
  heap : 'a Heap.t;
  res : Reservations.t;
  c : Counters.t;
  eng : 'a Reclaimer.t;
  epoch : int Atomic.t;
}

type 'a tctx = {
  g : 'a t;
  tid : int;
  port : Softsignal.port;
  srow : int Atomic.t array; (* cached shared era row *)
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
    c;
    eng = Reclaimer.create cfg ~heap ~counters:c;
    epoch = Atomic.make 1;
  }

let register g ~tid =
  {
    g;
    tid;
    port = Softsignal.register g.hub ~tid;
    srow = Reservations.shared_row g.res ~tid;
    rl = Reclaimer.register g.eng ~tid ~scratch_slots:(g.cfg.max_threads * g.cfg.max_hp);
  }

let start_op _ctx = ()

let end_op ctx = Reservations.clear_shared ctx.g.res ~tid:ctx.tid

let poll ctx = Softsignal.poll ctx.port

(* Algorithm 4, READ: publish the new era (fenced) only when it moved. *)
let rec read_from ctx cell addr proj old_era =
  let v = Atomic.get addr in
  let e = Atomic.get ctx.g.epoch in
  if e = old_era then v
  else begin
    Atomic.set cell e;
    read_from ctx cell addr proj e
  end

let read ctx slot addr proj =
  let cell = Array.unsafe_get ctx.srow slot in
  read_from ctx cell addr proj (Atomic.get cell)

let check ctx n = if n.Heap.seq land 1 = 1 then Heap.check_access ctx.g.heap n

let alloc ctx = Heap.alloc ctx.g.heap ~tid:ctx.tid ~birth_era:(Atomic.get ctx.g.epoch)

(* Freeable when no collected era lies within the node's lifespan — a
   range-emptiness query the engine runs per block stamp first, then
   per node only for inconclusive blocks (with the snapshot hoisted
   once per pass, not re-fetched per retired node). *)
let reclaim ?force ctx =
  let g = ctx.g in
  let collect scratch =
    ignore (Atomic.fetch_and_add g.epoch 1);
    Reclaimer.invalidate g.eng;
    Reservations.collect_shared g.res scratch
  in
  ignore (Reclaimer.scan_eras ?force ~kind:Reclaimer.Plain ~collect ~except:no_era ctx.rl)

let retire ctx n =
  n.Heap.retire_era <- Atomic.get ctx.g.epoch;
  Reclaimer.retire ctx.rl n;
  if Reclaimer.due ctx.rl then reclaim ctx

let free_unpublished ctx n = Reclaimer.free_unpublished ctx.rl n

let enter_write_phase _ctx _nodes = ()

let flush ctx = if not (Reclaimer.is_empty ctx.rl) then reclaim ~force:true ctx

let deregister ctx =
  Reservations.clear_shared ctx.g.res ~tid:ctx.tid;
  (* Scan survivors go to the orphanage; a peer's next pass adopts them. *)
  Reclaimer.donate ctx.rl;
  Softsignal.deregister ctx.port

let unreclaimed g = Counters.unreclaimed g.c

let stats g = Counters.snapshot ~heap:g.heap g.c ~hub:g.hub ~epoch:(Atomic.get g.epoch)
