type t = int Atomic.t array

let create n = Array.init n (fun _ -> Atomic.make 0)

let length = Array.length

let get t i = Atomic.get t.(i)

let cell t i = t.(i)

let set t i v = Atomic.set t.(i) v

let incr t i = Atomic.incr t.(i)

let add t i v = ignore (Atomic.fetch_and_add t.(i) v)

let sum t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t

let max_value t = Array.fold_left (fun acc c -> max acc (Atomic.get c)) min_int t
