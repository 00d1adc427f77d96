open Pop_runtime
open Pop_core
include Hp_family

let name = "cadence"

let create cfg hub heap = Hp_family.create ~publication:Tick ~reservation:Ids cfg hub heap

(* Amortize the clock read over 64 operations. *)
let start_op ctx =
  ctx.count <- ctx.count + 1;
  if ctx.count land 0x3f = 0 then Hp_family.maybe_tick ctx

let end_op ctx = Reservations.clear_local ctx.g.res ~tid:ctx.tid

(* Plain store to the visible SWMR row — the barrier rounds make it
   globally visible within one tick. *)
let rec read ctx slot addr proj =
  let v = Atomic.get addr in
  let n = proj v in
  Array.unsafe_set ctx.rows (ctx.base + slot) n.Pop_sim.Heap.id;
  if Atomic.get ctx.pending = 1 then Softsignal.poll ctx.port;
  if Atomic.get addr == v then v else read ctx slot addr proj
