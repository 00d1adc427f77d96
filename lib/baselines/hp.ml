open Pop_core
include Hp_family

let name = "hp"

let create cfg hub heap = Hp_family.create ~publication:Eager ~reservation:Ids cfg hub heap

let end_op ctx = Reservations.clear_shared ctx.g.res ~tid:ctx.tid

(* Reserve, fence, re-validate — Michael's protocol. [Atomic.set] is the
   fence (an [xchg] on x86); this fenced publish on every pointer read is
   the cost the paper's POP variants remove. *)
let rec read ctx slot addr proj =
  let v = Atomic.get addr in
  let n = proj v in
  Atomic.set (Array.unsafe_get ctx.srow slot) n.Pop_sim.Heap.id;
  if Atomic.get addr == v then v else read ctx slot addr proj
