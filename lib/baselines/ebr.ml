open Pop_runtime
open Pop_core
module Heap = Pop_sim.Heap

let name = "ebr"

type 'a t = {
  cfg : Smr_config.t;
  hub : Softsignal.t;
  heap : 'a Heap.t;
  reserved_epoch : Striped.t;
  c : Counters.t;
  eng : 'a Reclaimer.t;
  epoch : int Atomic.t;
}

type 'a tctx = {
  g : 'a t;
  tid : int;
  port : Softsignal.port;
  my_epoch : int Atomic.t; (* cached announcement slot *)
  rl : 'a Reclaimer.local;
  mutable op_counter : int;
  mutable last_min_epoch : int; (* skip-rescan guard *)
}

let create cfg hub heap =
  Smr_config.validate cfg;
  let reserved_epoch = Striped.create cfg.max_threads in
  for tid = 0 to cfg.max_threads - 1 do
    Striped.set reserved_epoch tid max_int
  done;
  let c = Counters.create cfg.max_threads in
  {
    cfg;
    hub;
    heap;
    reserved_epoch;
    c;
    eng = Reclaimer.create cfg ~heap ~counters:c;
    epoch = Atomic.make 1;
  }

let register g ~tid =
  {
    g;
    tid;
    port = Softsignal.register g.hub ~tid;
    my_epoch = Striped.cell g.reserved_epoch tid;
    rl = Reclaimer.register g.eng ~tid ~scratch_slots:1;
    op_counter = 0;
    last_min_epoch = -1;
  }

(* One fenced announcement per operation — EBR's whole read-side cost. *)
let start_op ctx =
  ctx.op_counter <- ctx.op_counter + 1;
  if ctx.op_counter mod ctx.g.cfg.epoch_freq = 0 then begin
    ignore (Atomic.fetch_and_add ctx.g.epoch 1);
    Reclaimer.invalidate ctx.g.eng
  end;
  Atomic.set ctx.my_epoch (Atomic.get ctx.g.epoch)

let end_op ctx = Atomic.set ctx.my_epoch max_int

let poll ctx = Softsignal.poll ctx.port

let read _ctx _slot addr _proj = Atomic.get addr

let check ctx n = if n.Heap.seq land 1 = 1 then Heap.check_access ctx.g.heap n

let alloc ctx = Heap.alloc ctx.g.heap ~tid:ctx.tid ~birth_era:0

let min_reserved g =
  let m = ref max_int in
  for tid = 0 to g.cfg.max_threads - 1 do
    let e = Striped.get g.reserved_epoch tid in
    if e < !m then m := e
  done;
  !m

let reclaim ctx =
  let g = ctx.g in
  let min_epoch = min_reserved g in
  (* A pinned minimum means another scan would free nothing: skip it so a
     stalled peer costs memory (the point of the robustness experiment)
     rather than quadratic scan time. *)
  if min_epoch > ctx.last_min_epoch then begin
    (* Future retirees are stamped with at least the current epoch, so
       anything beyond it cannot make this scan's outcome stale. *)
    ctx.last_min_epoch <- min min_epoch (Atomic.get g.epoch);
    ignore
      (Reclaimer.scan_plain ~kind:Reclaimer.Plain
         ~keep:(fun n -> n.Heap.retire_era >= min_epoch)
         ctx.rl)
  end
  else Reclaimer.note_skip ctx.rl

let retire ctx n =
  n.Heap.retire_era <- Atomic.get ctx.g.epoch;
  Reclaimer.retire ctx.rl n;
  if Reclaimer.pending ctx.rl mod Reclaimer.threshold ctx.g.eng = 0 then reclaim ctx

let free_unpublished ctx n = Reclaimer.free_unpublished ctx.rl n

let enter_write_phase _ctx _nodes = ()

let flush ctx =
  if not (Reclaimer.is_empty ctx.rl) then begin
    ignore (Atomic.fetch_and_add ctx.g.epoch 1);
    Reclaimer.invalidate ctx.g.eng;
    ctx.last_min_epoch <- -1;
    reclaim ctx
  end

let deregister ctx =
  Striped.set ctx.g.reserved_epoch ctx.tid max_int;
  (* Scan survivors go to the orphanage; a peer's next pass adopts them. *)
  Reclaimer.donate ctx.rl;
  Softsignal.deregister ctx.port

let unreclaimed g = Counters.unreclaimed g.c

let stats g = Counters.snapshot ~heap:g.heap g.c ~hub:g.hub ~epoch:(Atomic.get g.epoch)
