open Pop_runtime
open Pop_core
module Heap = Pop_sim.Heap

let name = "ibr"

(* Slot 0 of each thread's row is [lo], slot 1 is [hi]. *)
let lo_slot = 0

let hi_slot = 1

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
  lo_cell : int Atomic.t;
  hi_cell : int Atomic.t;
  rl : 'a Reclaimer.local;
  mutable cached_hi : int;
  mutable alloc_counter : int;
}

let create cfg hub heap =
  Smr_config.validate cfg;
  let c = Counters.create cfg.max_threads in
  {
    cfg;
    hub;
    heap;
    res = Reservations.create ~max_threads:cfg.max_threads ~slots:2 ~none:max_int;
    c;
    eng = Reclaimer.create cfg ~heap ~counters:c;
    epoch = Atomic.make 1;
  }

let register g ~tid =
  let row = Reservations.shared_row g.res ~tid in
  {
    g;
    tid;
    port = Softsignal.register g.hub ~tid;
    lo_cell = row.(lo_slot);
    hi_cell = row.(hi_slot);
    rl = Reclaimer.register g.eng ~tid ~scratch_slots:(g.cfg.max_threads * 2);
    cached_hi = -1;
    alloc_counter = 0;
  }

(* One fenced interval announcement per operation. *)
let start_op ctx =
  let e = Atomic.get ctx.g.epoch in
  Atomic.set ctx.hi_cell e;
  Atomic.set ctx.lo_cell e;
  ctx.cached_hi <- e

(* [lo = max_int] denotes "no interval": the freeability test's first
   disjunct is then true for every node. *)
let end_op ctx =
  Atomic.set ctx.lo_cell max_int;
  ctx.cached_hi <- -1

let poll ctx = Softsignal.poll ctx.port

(* The IBR paper's read: load the pointer, then the epoch. An unchanged
   epoch means the node was born at or below the published [hi]. A moved
   one is published (fenced: the bound must be visible before the pointer
   is used) and the pointer reloaded, as it may be a node born above it. *)
let rec read ctx slot addr proj =
  let v = Atomic.get addr in
  let e = Atomic.get ctx.g.epoch in
  if e = ctx.cached_hi then v
  else begin
    Atomic.set ctx.hi_cell e;
    ctx.cached_hi <- e;
    read ctx slot addr proj
  end

let check ctx n = if n.Heap.seq land 1 = 1 then Heap.check_access ctx.g.heap n

let alloc ctx =
  ctx.alloc_counter <- ctx.alloc_counter + 1;
  if ctx.alloc_counter mod ctx.g.cfg.epoch_freq = 0 then begin
    ignore (Atomic.fetch_and_add ctx.g.epoch 1);
    Reclaimer.invalidate ctx.g.eng
  end;
  Heap.alloc ctx.g.heap ~tid:ctx.tid ~birth_era:(Atomic.get ctx.g.epoch)

(* Free when the node's lifespan intersects no published interval:
   for every thread, retire < lo or birth > hi. The intervals are
   positional (per-thread lo/hi pairs), which a sorted set cannot
   represent — this is the engine's raw-scratch scan. *)
let can_free scratch nthreads n =
  let ok = ref true in
  for tid = 0 to nthreads - 1 do
    let lo = scratch.((tid * 2) + lo_slot) and hi = scratch.((tid * 2) + hi_slot) in
    if not (n.Heap.retire_era < lo || n.Heap.birth_era > hi) then ok := false
  done;
  !ok

(* The block-level verdict over the same positional intervals. Each
   node's lifespan is inside the block envelope ([min_birth,
   max_retire] for the free direction, and retire >= min_retire /
   birth <= max_birth for the keep one), so:
   - every interval misses the envelope => every node is freeable;
   - some interval covers [max_birth, min_retire] => it overlaps every
     node's lifespan: the whole block is kept. *)
let classify_block scratch nthreads ~min_birth ~max_birth ~min_retire ~max_retire =
  let all_free = ref true and all_kept = ref false in
  for tid = 0 to nthreads - 1 do
    let lo = scratch.((tid * 2) + lo_slot) and hi = scratch.((tid * 2) + hi_slot) in
    if not (max_retire < lo || min_birth > hi) then all_free := false;
    if lo <= min_retire && max_birth <= hi then all_kept := true
  done;
  if !all_free then Reclaimer.Free_block
  else if !all_kept then Reclaimer.Keep_block
  else Reclaimer.Scan_block

let reclaim ?force ctx =
  let g = ctx.g in
  let collect scratch =
    let k = Reservations.collect_shared g.res scratch in
    assert (k = g.cfg.max_threads * 2);
    k
  in
  (* The raw scratch array is a stable per-local reference: hoist it
     (and the thread count) out of the per-node and per-block closures. *)
  let scratch = Reclaimer.raw ctx.rl and nthreads = g.cfg.max_threads in
  ignore
    (Reclaimer.scan ?force ~fill:false
       ~block_keep:(classify_block scratch nthreads)
       ~kind:Reclaimer.Plain ~collect ~except:max_int
       ~keep:(fun n -> not (can_free scratch nthreads n))
       ctx.rl)

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
    reclaim ~force:true ctx
  end

let deregister ctx =
  Reservations.set_shared ctx.g.res ~tid:ctx.tid ~slot:lo_slot max_int;
  (* Scan survivors go to the orphanage; a peer's next pass adopts them. *)
  Reclaimer.donate ctx.rl;
  Softsignal.deregister ctx.port

let unreclaimed g = Counters.unreclaimed g.c

let stats g = Counters.snapshot ~heap:g.heap g.c ~hub:g.hub ~epoch:(Atomic.get g.epoch)
