open Pop_runtime
open Pop_core
module Heap = Pop_sim.Heap

let name = "unsafe-free"

type 'a t = {
  cfg : Smr_config.t;
  hub : Softsignal.t;
  heap : 'a Heap.t;
  c : Counters.t;
  eng : 'a Reclaimer.t;
}

type 'a tctx = { g : 'a t; tid : int; port : Softsignal.port; rl : 'a Reclaimer.local }

let create cfg hub heap =
  Smr_config.validate cfg;
  let c = Counters.create cfg.max_threads in
  { cfg; hub; heap; c; eng = Reclaimer.create cfg ~heap ~counters:c }

let register g ~tid =
  { g; tid; port = Softsignal.register g.hub ~tid; rl = Reclaimer.register g.eng ~tid ~scratch_slots:1 }

let start_op _ctx = ()

let end_op _ctx = ()

let poll ctx = Softsignal.poll ctx.port

let read _ctx _slot addr _proj = Atomic.get addr

let check ctx n = if n.Heap.seq land 1 = 1 then Heap.check_access ctx.g.heap n

let alloc ctx = Heap.alloc ctx.g.heap ~tid:ctx.tid ~birth_era:0

(* Free immediately: no grace period at all, the lower bound every SMR
   scheme is measured against (and the source of use-after-free hits). *)
let retire ctx n = Reclaimer.retire_now ctx.rl n

let free_unpublished ctx n = Reclaimer.free_unpublished ctx.rl n

let enter_write_phase _ctx _nodes = ()

let flush _ctx = ()

let deregister ctx =
  (* [retire_now] buffers nothing, so this is a no-op; kept so every
     scheme's exit path is uniformly routed through the orphanage. *)
  Reclaimer.donate ctx.rl;
  Softsignal.deregister ctx.port

let unreclaimed g = Counters.unreclaimed g.c

let stats g = Counters.snapshot ~heap:g.heap g.c ~hub:g.hub ~epoch:0
