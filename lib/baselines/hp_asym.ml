open Pop_runtime
open Pop_core
include Hp_family

let name = "hp-asym"

let create cfg hub heap = Hp_family.create ~publication:Barrier ~reservation:Ids cfg hub heap

let end_op ctx = Reservations.clear_local ctx.g.res ~tid:ctx.tid

(* Plain store to the visible SWMR row — no fence, like Folly's HP with
   asymmetric barriers. *)
let rec read ctx slot addr proj =
  let v = Atomic.get addr in
  let n = proj v in
  Array.unsafe_set ctx.rows (ctx.base + slot) n.Pop_sim.Heap.id;
  if Atomic.get ctx.pending = 1 then Softsignal.poll ctx.port;
  if Atomic.get addr == v then v else read ctx slot addr proj
