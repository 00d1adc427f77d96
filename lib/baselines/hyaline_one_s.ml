include Hyaline_family

let name = "hyaline-1s"

let create cfg hub heap = Hyaline_family.create ~guard:true cfg hub heap

(* HE-style read: a successful protected read implies the global era
   equalled this thread's published era at read time, so the thread can
   only ever hold pointers to nodes with [birth_era <= published era] —
   the invariant the enlist skip relies on. *)
let rec read_from ctx cell addr proj old_era =
  let v = Atomic.get addr in
  let e = Atomic.get ctx.g.era in
  if e = old_era then v
  else begin
    Atomic.set cell e;
    read_from ctx cell addr proj e
  end

let read ctx _slot addr proj =
  let cell = Array.unsafe_get ctx.g.eras ctx.tid in
  read_from ctx cell addr proj (Atomic.get cell)
