open Pop_runtime
open Pop_core
module Heap = Pop_sim.Heap

let name = "hp"

let no_id = min_int

type 'a t = {
  cfg : Smr_config.t;
  hub : Softsignal.t;
  heap : 'a Heap.t;
  res : Reservations.t;
  c : Counters.t;
  eng : 'a Reclaimer.t;
}

type 'a tctx = {
  g : 'a t;
  tid : int;
  port : Softsignal.port;
  srow : int Atomic.t array; (* cached shared reservation row *)
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
    c;
    eng = Reclaimer.create cfg ~heap ~counters:c;
  }

let register g ~tid =
  let nres = g.cfg.max_threads * g.cfg.max_hp in
  {
    g;
    tid;
    port = Softsignal.register g.hub ~tid;
    srow = Reservations.shared_row g.res ~tid;
    rl = Reclaimer.register g.eng ~tid ~scratch_slots:nres;
  }

let start_op _ctx = ()

let end_op ctx = Reservations.clear_shared ctx.g.res ~tid:ctx.tid

let poll ctx = Softsignal.poll ctx.port

(* Reserve, fence, re-validate — Michael's protocol. [Atomic.set] is the
   fence (an [xchg] on x86); this fenced publish on every pointer read is
   the cost the paper's POP variants remove. *)
let rec read ctx slot addr proj =
  let v = Atomic.get addr in
  let n = proj v in
  Atomic.set (Array.unsafe_get ctx.srow slot) n.Heap.id;
  if Atomic.get addr == v then v else read ctx slot addr proj

let check ctx n = if n.Heap.seq land 1 = 1 then Heap.check_access ctx.g.heap n

let alloc ctx = Heap.alloc ctx.g.heap ~tid:ctx.tid ~birth_era:0

let reclaim ?force ctx =
  let g = ctx.g in
  ignore
    (Reclaimer.scan ?force ~kind:Reclaimer.Plain
       ~collect:(fun scratch -> Reservations.collect_shared g.res scratch)
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
  Reservations.clear_shared ctx.g.res ~tid:ctx.tid;
  (* Scan survivors go to the orphanage; a peer's next pass adopts them. *)
  Reclaimer.donate ctx.rl;
  Softsignal.deregister ctx.port

let unreclaimed g = Counters.unreclaimed g.c

let stats g = Counters.snapshot ~heap:g.heap g.c ~hub:g.hub ~epoch:0
