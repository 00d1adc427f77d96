open Pop_runtime
open Pop_core
module Heap = Pop_sim.Heap

let name = "hyaline-1s"

type 'a batch = { nodes : 'a Heap.node array; refs : int Atomic.t }

type 'a slot = Inactive | Active of 'a batch list

type 'a t = {
  cfg : Smr_config.t;
  hub : Softsignal.t;
  heap : 'a Heap.t;
  slots : 'a slot Atomic.t array;
  (* One published era per thread (the "S" in 1S): single-writer
     multi-reader, valid whenever the thread's slot is active (start_op
     publishes it, fenced, *before* going active). Enlisting consults
     it to skip slots that provably cannot reach the batch. *)
  eras : int Atomic.t array;
  era : int Atomic.t;  (* global era, bumped at each batch formation *)
  c : Counters.t;
  eng : 'a Reclaimer.t;
}

type 'a tctx = {
  g : 'a t;
  tid : int;
  port : Softsignal.port;
  rl : 'a Reclaimer.local;
}

let create cfg hub heap =
  Smr_config.validate cfg;
  let c = Counters.create cfg.max_threads in
  {
    cfg;
    hub;
    heap;
    slots = Array.init cfg.max_threads (fun _ -> Atomic.make Inactive);
    eras = Array.init cfg.max_threads (fun _ -> Atomic.make 0);
    era = Atomic.make 1;
    c;
    eng = Reclaimer.create cfg ~heap ~counters:c;
  }

let register g ~tid =
  {
    g;
    tid;
    port = Softsignal.register g.hub ~tid;
    rl = Reclaimer.register g.eng ~tid ~scratch_slots:1;
  }

let traverse ctx batch =
  if Atomic.fetch_and_add batch.refs (-1) = 1 then Reclaimer.free_array ctx.rl batch.nodes

let drain ctx = function Inactive -> () | Active enlisted -> List.iter (traverse ctx) enlisted

let start_op ctx =
  (* Publish the era (fenced) strictly before going active: an active
     slot with a stale or cleared era cell would be skipped by
     enlisters and lose its protection. *)
  let cell = Array.unsafe_get ctx.g.eras ctx.tid in
  Atomic.set cell (Atomic.get ctx.g.era);
  drain ctx (Atomic.exchange ctx.g.slots.(ctx.tid) (Active []))

let end_op ctx =
  drain ctx (Atomic.exchange ctx.g.slots.(ctx.tid) Inactive);
  Atomic.set (Array.unsafe_get ctx.g.eras ctx.tid) 0

let poll ctx = Softsignal.poll ctx.port

(* HE-style read: a successful protected read implies the global era
   equalled this thread's published era at read time, so the thread can
   only ever hold pointers to nodes with [birth_era <= published era] —
   the invariant the enlist skip below relies on. *)
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

let check ctx n = if n.Heap.seq land 1 = 1 then Heap.check_access ctx.g.heap n

let alloc ctx = Heap.alloc ctx.g.heap ~tid:ctx.tid ~birth_era:(Atomic.get ctx.g.era)

(* ADJUST with the 1S robustness guard: a slot whose published era is
   older than the batch's minimum birth era is skipped — its owner
   cannot hold a pointer to any batch node (each node was born after
   the owner's last era-validated read), so charging it would only let
   a stalled or crashed thread pin the batch forever. A racy read of a
   just-cleared era cell (0) only skips threads that already left or
   re-entered after every batch node was unlinked; either way they
   cannot reach the nodes. *)
let adjust ctx batch ~min_birth =
  let g = ctx.g in
  if Array.length batch.nodes = 0 then ()
  else begin
    let adjs = ref 0 in
    for tid = 0 to g.cfg.max_threads - 1 do
      let cell = g.slots.(tid) in
      let rec enlist () =
        match Atomic.get cell with
        | Inactive -> ()
        | Active enlisted as cur ->
            if Atomic.get (Array.unsafe_get g.eras tid) < min_birth then ()
            else if Atomic.compare_and_set cell cur (Active (batch :: enlisted)) then
              incr adjs
            else enlist ()
      in
      enlist ()
    done;
    if !adjs = 0 then Reclaimer.free_array ctx.rl batch.nodes
    else if Atomic.fetch_and_add batch.refs !adjs = - !adjs then
      Reclaimer.free_array ctx.rl batch.nodes
  end

let reclaim ctx =
  Counters.reclaim_pass ctx.g.c ~tid:ctx.tid;
  let t0 = Clock.now () in
  (* Bump the global era at batch formation: later allocations are born
     into a newer era, so frozen threads fall behind the min-birth
     guard of every batch formed after they stalled. *)
  ignore (Atomic.fetch_and_add ctx.g.era 1);
  let nodes = Reclaimer.take_all ctx.rl in
  let min_birth =
    Array.fold_left (fun acc n -> min acc n.Heap.birth_era) max_int nodes
  in
  adjust ctx { nodes; refs = Atomic.make 0 } ~min_birth;
  Counters.note_pause ctx.g.c ~tid:ctx.tid (int_of_float (Clock.elapsed t0 *. 1e9))

let retire ctx n =
  n.Heap.retire_era <- Atomic.get ctx.g.era;
  Reclaimer.retire ctx.rl n;
  if Reclaimer.due ctx.rl then reclaim ctx

let free_unpublished ctx n = Reclaimer.free_unpublished ctx.rl n

let enter_write_phase _ctx _nodes = ()

let flush ctx = if not (Reclaimer.is_empty ctx.rl) then reclaim ctx

let deregister ctx =
  end_op ctx;
  Reclaimer.donate ctx.rl;
  Softsignal.deregister ctx.port

let unreclaimed g = Counters.unreclaimed g.c

let stats g = Counters.snapshot ~heap:g.heap g.c ~hub:g.hub ~epoch:(Atomic.get g.era)
