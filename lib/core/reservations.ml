open Pop_runtime

type t = {
  nslots : int;
  none : int;
  local : Padded.t; (* row per thread, each on its own lines; plain stores *)
  shared : int Atomic.t array array; (* SWMR atomic cells *)
}

let create ~max_threads ~slots ~none =
  {
    nslots = slots;
    none;
    local = Padded.create ~max_threads ~width:slots none;
    shared =
      Array.init max_threads (fun _ -> Array.init slots (fun _ -> Atomic.make none));
  }

let slots t = t.nslots

let max_threads t = Array.length t.shared

let none t = t.none

let local_block t = Padded.block t.local

let local_base t ~tid = Padded.base t.local tid

(* Slot [slot] of [tid]'s private row, as an index into the block. *)
let local_index t ~tid ~slot =
  if slot < 0 || slot >= t.nslots then invalid_arg "Reservations: slot out of range";
  local_base t ~tid + slot

let set_local t ~tid ~slot v = (Padded.block t.local).(local_index t ~tid ~slot) <- v

let shared_row t ~tid = t.shared.(tid)

let get_local t ~tid ~slot = (Padded.block t.local).(local_index t ~tid ~slot)

let clear_local t ~tid = Array.fill (Padded.block t.local) (local_base t ~tid) t.nslots t.none

let publish t ~tid =
  let block = Padded.block t.local and b = local_base t ~tid and out = t.shared.(tid) in
  for i = 0 to t.nslots - 1 do
    Atomic.set out.(i) block.(b + i)
  done

let set_shared t ~tid ~slot v = Atomic.set t.shared.(tid).(slot) v

let get_shared t ~tid ~slot = Atomic.get t.shared.(tid).(slot)

let clear_shared t ~tid =
  let out = t.shared.(tid) in
  for i = 0 to t.nslots - 1 do
    Atomic.set out.(i) t.none
  done

let collect_shared t scratch =
  let k = ref 0 in
  for tid = 0 to Array.length t.shared - 1 do
    let row = t.shared.(tid) in
    for i = 0 to t.nslots - 1 do
      scratch.(!k) <- Atomic.get row.(i);
      incr k
    done
  done;
  !k

let append_local_row t ~tid ~into ~pos =
  Array.blit (Padded.block t.local) (local_base t ~tid) into pos t.nslots;
  pos + t.nslots

let collect_local t scratch =
  let k = ref 0 in
  for tid = 0 to Array.length t.shared - 1 do
    k := append_local_row t ~tid ~into:scratch ~pos:!k
  done;
  !k
