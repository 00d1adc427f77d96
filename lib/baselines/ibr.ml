open Pop_core
include Hp_family

let name = "ibr"

(* Slot 0 of each thread's shared row is [lo], slot 1 is [hi]: the pair
   layout [Reclaimer.scan_intervals] reads. *)
let create cfg hub heap = Hp_family.create ~publication:Eager ~reservation:Intervals cfg hub heap

(* One fenced interval announcement per operation. *)
let start_op ctx =
  let e = Atomic.get ctx.g.epoch in
  Atomic.set (Array.unsafe_get ctx.srow 1) e;
  Atomic.set (Array.unsafe_get ctx.srow 0) e

(* [lo = max_int] denotes "no interval": it overlaps no lifespan. *)
let end_op ctx = Atomic.set (Array.unsafe_get ctx.srow 0) max_int

(* The IBR paper's read: load the pointer, then the epoch. An unchanged
   epoch means the node was born at or below the published [hi]. A moved
   one is published (fenced: the bound must be visible before the pointer
   is used) and the pointer reloaded, as it may be a node born above it.
   This is hazard eras' READ with [hi] as the one slot. *)
let rec read_from ctx cell addr proj old_era =
  let v = Atomic.get addr in
  let e = Atomic.get ctx.g.epoch in
  if e = old_era then v
  else begin
    Atomic.set cell e;
    read_from ctx cell addr proj e
  end

let read ctx _slot addr proj =
  let cell = Array.unsafe_get ctx.srow 1 in
  read_from ctx cell addr proj (Atomic.get cell)

(* The global epoch advances every [epoch_freq] allocations. *)
let alloc ctx =
  ctx.count <- ctx.count + 1;
  if ctx.count mod ctx.g.cfg.epoch_freq = 0 then Hp_family.advance ctx.g;
  Hp_family.alloc ctx
