open Pop_runtime
open Pop_core
module Heap = Pop_sim.Heap

let name = "hp-asym"

let no_id = min_int

type 'a t = {
  cfg : Smr_config.t;
  hub : Softsignal.t;
  heap : 'a Heap.t;
  res : Reservations.t; (* local rows double as the visible table *)
  hs : Handshake.t;
  c : Counters.t;
  eng : 'a Reclaimer.t;
}

type 'a tctx = {
  g : 'a t;
  tid : int;
  port : Softsignal.port;
  pending : int Atomic.t; (* the port's ping flag, tested inline by [read] *)
  rows : int array; (* plain SWMR reservation rows (no fence) *)
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
      rl = Reclaimer.register g.eng ~tid ~scratch_slots:nres;
    }
  in
  (* The "membarrier": the handler only acknowledges; the ack's seq_cst
     increment orders the thread's earlier plain reservation stores —
     newly visible reservation state, so cached snapshots go stale. *)
  Softsignal.set_handler port (fun () ->
      Reclaimer.invalidate g.eng;
      Handshake.ack g.hs ~tid);
  ctx

let start_op _ctx = ()

let end_op ctx = Reservations.clear_local ctx.g.res ~tid:ctx.tid

let poll ctx = Softsignal.poll ctx.port

(* Plain store to the visible SWMR row — no fence, like Folly's HP with
   asymmetric barriers. *)
let rec read ctx slot addr proj =
  let v = Atomic.get addr in
  let n = proj v in
  Array.unsafe_set ctx.rows (ctx.base + slot) n.Heap.id;
  if Atomic.get ctx.pending = 1 then Softsignal.poll ctx.port;
  if Atomic.get addr == v then v else read ctx slot addr proj

let check ctx n = if n.Heap.seq land 1 = 1 then Heap.check_access ctx.g.heap n

let alloc ctx = Heap.alloc ctx.g.heap ~tid:ctx.tid ~birth_era:0

let reclaim ?force ctx =
  let g = ctx.g in
  let collect scratch =
    (* Timeouts need no fallback here: the scan below already reads every
       peer's local row racily, including a timed-out peer's. A peer deaf
       for the whole spin budget has not executed READ since long before
       the ping (every READ tests the flag), so its last reservation
       stores are visible; an in-flight unvalidated reservation is safe
       to honour because the validating re-read retries on conflict. *)
    ignore (Handshake.round g.hs ~port:ctx.port);
    Reservations.collect_local g.res scratch
  in
  ignore
    (Reclaimer.scan ?force ~kind:Reclaimer.Pop ~collect ~except:no_id
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
  (* Scan survivors go to the orphanage; a peer's next pass adopts them. *)
  Reclaimer.donate ctx.rl;
  Softsignal.deregister ctx.port

let unreclaimed g = Counters.unreclaimed g.c

let stats g = Counters.snapshot ~heap:g.heap ~hs:g.hs g.c ~hub:g.hub ~epoch:0
