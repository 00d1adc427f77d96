open Pop_runtime
include Hp_family

let name = "hp-pop"

let create cfg hub heap = Hp_family.create ~publication:Ping ~reservation:Ids cfg hub heap

(* Algorithm 1, CLEAR. *)
let end_op ctx = Reservations.clear_local ctx.g.res ~tid:ctx.tid

(* Algorithm 1, READ: reserve locally (plain store, no store-load fence),
   then validate that the pointer is unchanged. The flag test between
   reserve and validate is the soft-signal delivery point: a pending
   ping is handled here, and with none pending the test is one load. *)
let rec read ctx slot addr proj =
  let v = Atomic.get addr in
  let n = proj v in
  Array.unsafe_set ctx.rows (ctx.base + slot) n.Pop_sim.Heap.id;
  if Atomic.get ctx.pending = 1 then Softsignal.poll ctx.port;
  if Atomic.get addr == v then v else read ctx slot addr proj
