open Pop_core
include Hp_family

let name = "he"

let create cfg hub heap = Hp_family.create ~publication:Eager ~reservation:Eras cfg hub heap

let end_op ctx = Reservations.clear_shared ctx.g.res ~tid:ctx.tid

(* Algorithm 4, READ: publish the new era (fenced) only when it moved. *)
let rec read_from ctx cell addr proj old_era =
  let v = Atomic.get addr in
  let e = Atomic.get ctx.g.epoch in
  if e = old_era then v
  else begin
    Atomic.set cell e;
    read_from ctx cell addr proj e
  end

let read ctx slot addr proj =
  let cell = Array.unsafe_get ctx.srow slot in
  read_from ctx cell addr proj (Atomic.get cell)
