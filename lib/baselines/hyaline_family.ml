open Pop_runtime
open Pop_core
module Heap = Pop_sim.Heap

(* REFS in the paper, carried out-of-band: the simulator keeps the
   counter beside the node array instead of reusing a node's link word. *)
type 'a batch = { nodes : 'a Heap.node array; refs : int Atomic.t }

(* A thread's slot: [Inactive] outside operations, [Active enlisted]
   inside one, where [enlisted] is the list of batches charged to this
   slot since it entered. Replaced wholesale by CAS/exchange, so a
   retirer's enlist and the owner's leave serialize on the cell. *)
type 'a slot = Inactive | Active of 'a batch list

type 'a t = {
  cfg : Smr_config.t;
  hub : Softsignal.t;
  heap : 'a Heap.t;
  slots : 'a slot Atomic.t array;
  eras : int Atomic.t array;
  era : int Atomic.t;
  eng : 'a Reclaimer.t;
  guard : bool;
}

type 'a tctx = { g : 'a t; tid : int; port : Softsignal.port; rl : 'a Reclaimer.local }

let create ~guard (cfg : Smr_config.t) hub heap =
  Smr_config.validate cfg;
  {
    cfg;
    hub;
    heap;
    slots = Array.init cfg.max_threads (fun _ -> Atomic.make Inactive);
    eras = Array.init cfg.max_threads (fun _ -> Atomic.make 0);
    era = Atomic.make 1;
    eng = Reclaimer.create cfg ~heap;
    guard;
  }

let register g ~tid =
  { g; tid; port = Softsignal.register g.hub ~tid; rl = Reclaimer.register g.eng ~tid ~scratch_slots:1 }

(* TRAVERSE: drop one reference from a batch this thread was charged
   for. The decrement that takes the counter from 1 to 0 frees; the
   deferred [adjust] below guarantees that crossing is unique. *)
let traverse ctx batch =
  if Atomic.fetch_and_add batch.refs (-1) = 1 then Reclaimer.free_array ctx.rl batch.nodes

let drain ctx = function Inactive -> () | Active enlisted -> List.iter (traverse ctx) enlisted

let start_op ctx =
  (* Publish the era (fenced) strictly before going active: an active
     slot with a stale or cleared era cell would be skipped by
     enlisters and lose its protection. *)
  if ctx.g.guard then Atomic.set (Array.unsafe_get ctx.g.eras ctx.tid) (Atomic.get ctx.g.era);
  (* Leftover charges can only exist if end_op was skipped; drain them
     so the batch accounting stays exact. *)
  drain ctx (Atomic.exchange ctx.g.slots.(ctx.tid) (Active []))

(* LEAVE: go inactive and drop every batch charged while active. *)
let end_op ctx =
  drain ctx (Atomic.exchange ctx.g.slots.(ctx.tid) Inactive);
  if ctx.g.guard then Atomic.set (Array.unsafe_get ctx.g.eras ctx.tid) 0

let poll ctx = Softsignal.poll ctx.port

let check ctx n = if n.Heap.seq land 1 = 1 then Heap.check_access ctx.g.heap n

let alloc ctx = Heap.alloc ctx.g.heap ~tid:ctx.tid ~birth_era:(Atomic.get ctx.g.era)

(* ADJUST (Hyaline-1): enlist the batch on every active slot, counting
   successful pushes, then add that count to [refs] in one deferred
   adjustment. Because [refs] starts at 0 and only this one adjustment
   is ever positive, the counter sits at or below 0 until the add:
   enlisted threads that leave *before* the add drive it negative, and
   the add landing exactly on 0 ([old = -adjs]) means every charged
   thread has already left — the retirer frees. After the add the
   counter is positive, and the traverse that sees [old = 1] is
   necessarily the last reference. Either way the 0-crossing is unique,
   with no creator token to keep alive during enlistment.

   The 1S robustness guard: a slot whose published era is older than
   the batch's minimum birth era is skipped — its owner cannot hold a
   pointer to any batch node (each node was born after the owner's last
   era-validated read), so charging it would only let a stalled or
   crashed thread pin the batch forever. A racy read of a just-cleared
   era cell (0) only skips threads that already left or re-entered
   after every batch node was unlinked; either way they cannot reach
   the nodes. Without the guard [min_birth] is [min_int] and no slot is
   skipped. *)
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
  let g = ctx.g in
  (* Under the guard, bump the global era at batch formation: later
     allocations are born into a newer era, so frozen threads fall
     behind the min-birth guard of every batch formed after they
     stalled. *)
  if g.guard then ignore (Atomic.fetch_and_add g.era 1);
  (* The pass here is drain + adjust (frees happen lazily on traverse),
     so the engine's pass frame times that whole span. *)
  Reclaimer.take_all ctx.rl (fun nodes ->
      let min_birth =
        if g.guard then Array.fold_left (fun acc n -> min acc n.Heap.birth_era) max_int nodes
        else min_int
      in
      adjust ctx { nodes; refs = Atomic.make 0 } ~min_birth)

let retire ctx n =
  n.Heap.retire_era <- Atomic.get ctx.g.era;
  Reclaimer.retire ctx.rl n;
  if Reclaimer.due ctx.rl then reclaim ctx

let free_unpublished ctx n = Reclaimer.free_unpublished ctx.rl n

let enter_write_phase _ctx _nodes = ()

let flush ctx = if not (Reclaimer.is_empty ctx.rl) then reclaim ctx

let deregister ctx =
  end_op ctx;
  (* The unformed local batch goes to the orphanage; a peer's next
     [take_all] folds it into its own batch and adjusts it. *)
  Reclaimer.donate ctx.rl;
  Softsignal.deregister ctx.port

let unreclaimed g = Reclaimer.unreclaimed g.eng

let stats g =
  let epoch = if g.guard then Atomic.get g.era else 0 in
  Reclaimer.stats g.eng ~hub:g.hub ~epoch
