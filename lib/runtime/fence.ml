type cell = int Atomic.t

let make_cell () = Atomic.make 0

let execute cell n =
  for _ = 1 to n do
    ignore (Atomic.fetch_and_add cell 1)
  done
