open Pop_runtime
include Hp_family

let name = "he-pop"

let create cfg hub heap = Hp_family.create ~publication:Ping ~reservation:Eras cfg hub heap

let end_op ctx = Reservations.clear_local ctx.g.res ~tid:ctx.tid

(* Algorithm 5, READ: reserve the current era locally. Unlike original
   hazard eras (Algorithm 4 line 14) no fence is needed when the era
   advanced mid-read — the reservation stays private until pinged. *)
let rec read_from ctx slot addr proj old_era =
  let v = Atomic.get addr in
  let e = Atomic.get ctx.g.epoch in
  if Atomic.get ctx.pending = 1 then Softsignal.poll ctx.port;
  if e = old_era then v
  else begin
    (* Era changed mid-read: re-reserve — but privately, with a plain
       store; this is the fence original HE pays and POP does not. *)
    Array.unsafe_set ctx.rows (ctx.base + slot) e;
    read_from ctx slot addr proj e
  end

let read ctx slot addr proj =
  read_from ctx slot addr proj (Array.unsafe_get ctx.rows (ctx.base + slot))
