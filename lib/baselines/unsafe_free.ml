include Nr

let name = "unsafe-free"

(* Free immediately: no grace period at all, the lower bound every SMR
   scheme is measured against (and the source of use-after-free hits). *)
let retire = retire_now
