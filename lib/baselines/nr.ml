open Pop_runtime
open Pop_core
module Heap = Pop_sim.Heap

let name = "nr"

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

(* Leak: the node is dropped on the floor (the simulated heap never sees
   it again), so allocations keep growing — the paper's NR behaviour. *)
let retire ctx n = Reclaimer.retire_leak ctx.rl n

(* Free immediately: no grace period at all (unsafe-free's [retire]). *)
let retire_now ctx n = Reclaimer.retire_now ctx.rl n

(* Unpublished nodes were never shared, so even NR can recycle them. *)
let free_unpublished ctx n = Reclaimer.free_unpublished ctx.rl n

let enter_write_phase _ctx _nodes = ()

let flush _ctx = ()

let deregister ctx =
  (* [retire_leak] and [retire_now] buffer nothing, so this is a no-op,
     kept so every scheme's exit path is routed through the orphanage. *)
  Reclaimer.donate ctx.rl;
  Softsignal.deregister ctx.port

let unreclaimed g = Counters.unreclaimed g.c

let stats g = Counters.snapshot ~heap:g.heap g.c ~hub:g.hub ~epoch:0
