type t = { block : int array; rows : int; stride : int }

(* 8 words = one 64-byte line: indices 8 apart never share a line,
   whatever the block's alignment. *)
let guard = 8

let create ~max_threads ~width v =
  if max_threads < 1 || width < 1 then invalid_arg "Padded.create: counts must be positive";
  (* At least [guard] words between rows, rounded to whole lines. *)
  let stride = max 16 ((width + guard + 7) / 8 * 8) in
  { block = Array.make (guard + (max_threads * stride)) v; rows = max_threads; stride }

let block t = t.block

let base t tid =
  if tid < 0 || tid >= t.rows then invalid_arg "Padded.base: tid out of range";
  guard + (tid * t.stride)
