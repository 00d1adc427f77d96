open Pop_runtime
include Epoch_family

let name = "epoch-pop"

let create cfg hub heap = Epoch_family.create ~fallback:true cfg hub heap

(* Algorithm 3, ENDOP plus CLEAR of the private reservations. *)
let end_op ctx =
  Atomic.set ctx.my_epoch max_int;
  Reservations.clear_local ctx.g.res ~tid:ctx.tid

(* Algorithm 3, READ: identical to HazardPtrPOP's read — the private
   reservation is what makes the POP fallback safe. *)
let rec read ctx slot addr proj =
  let v = Atomic.get addr in
  let n = proj v in
  Array.unsafe_set ctx.rows (ctx.base + slot) n.Pop_sim.Heap.id;
  if Atomic.get ctx.pending = 1 then Softsignal.poll ctx.port;
  if Atomic.get addr == v then v else read ctx slot addr proj
