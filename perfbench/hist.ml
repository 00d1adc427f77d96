(* Linear buckets [width] ns wide; the last bucket also takes every
   larger sample, whose quantile is then reported as the exact max. *)
type t = { width : int; counts : int array; mutable n : int; mutable max_ns : int }

let buckets = 32768

let create ~width_ns = { width = width_ns; counts = Array.make buckets 0; n = 0; max_ns = 0 }

let record t ns =
  let ns = if ns < 0 then 0 else ns in
  let i = ns / t.width in
  let i = if i >= buckets then buckets - 1 else i in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  if ns > t.max_ns then t.max_ns <- ns

let record_s t s = record t (int_of_float (s *. 1e9))

let count t = t.n

let max_ns t = t.max_ns

let merge_into dst ~src =
  if dst.width <> src.width then invalid_arg "Hist.merge_into: bucket widths differ";
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n;
  if src.max_ns > dst.max_ns then dst.max_ns <- src.max_ns

let quantile t q =
  if t.n = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
    let i = ref 0 and seen = ref t.counts.(0) in
    while !seen < rank do
      incr i;
      seen := !seen + t.counts.(!i)
    done;
    if !i = buckets - 1 then float_of_int t.max_ns
    else Float.min (float_of_int t.max_ns) ((float_of_int !i +. 0.5) *. float_of_int t.width)
  end
