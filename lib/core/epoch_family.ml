open Pop_runtime
module Heap = Pop_sim.Heap

let no_id = min_int

type 'a t = {
  cfg : Smr_config.t;
  hub : Softsignal.t;
  heap : 'a Heap.t;
  res : Reservations.t;
  reserved_epoch : Striped.t;
  hs : Handshake.t;
  c : Counters.t;
  eng : 'a Reclaimer.t;
  epoch : int Atomic.t;
  fallback : bool;
}

type 'a tctx = {
  g : 'a t;
  tid : int;
  port : Softsignal.port;
  pending : int Atomic.t;
  rows : int array;
  base : int;
  my_epoch : int Atomic.t;
  rl : 'a Reclaimer.local;
  mutable stuck_epoch : int;
  mutable epoch_floor : int;
  mutable op_counter : int;
}

let create ~fallback (cfg : Smr_config.t) hub heap =
  Smr_config.validate cfg;
  let reserved_epoch = Striped.create cfg.max_threads in
  for tid = 0 to cfg.max_threads - 1 do
    Striped.set reserved_epoch tid max_int
  done;
  let c = Counters.create cfg.max_threads in
  {
    cfg;
    hub;
    heap;
    res = Reservations.create ~max_threads:cfg.max_threads ~slots:cfg.max_hp ~none:no_id;
    reserved_epoch;
    hs = Handshake.create cfg hub;
    c;
    eng = Reclaimer.create cfg ~heap ~counters:c;
    epoch = Atomic.make 1;
    fallback;
  }

let register g ~tid =
  let port = Softsignal.register g.hub ~tid in
  let nres = g.cfg.max_threads * g.cfg.max_hp in
  let ctx =
    {
      g;
      tid;
      port;
      pending = Softsignal.pending_cell port;
      rows = Reservations.local_block g.res;
      base = Reservations.local_base g.res ~tid;
      my_epoch = Striped.cell g.reserved_epoch tid;
      (* 2x: room for the shared table plus racy local-row copies of
         quarantined (crashed) peers, whose epoch announcement must not
         be honoured as a floor — see [reclaim_pop]. *)
      rl = Reclaimer.register g.eng ~tid ~scratch_slots:(2 * nres);
      stuck_epoch = max_int;
      epoch_floor = min_int;
      op_counter = 0;
    }
  in
  if g.fallback then Hp_family.set_pop_handler port g.res g.eng g.hs;
  ctx

(* Algorithm 3, STARTOP (and Algorithm 6's): advance the global epoch
   every [epoch_freq] operations and announce the epoch we run in. *)
let start_op ctx =
  ctx.op_counter <- ctx.op_counter + 1;
  if ctx.op_counter mod ctx.g.cfg.epoch_freq = 0 then begin
    ignore (Atomic.fetch_and_add ctx.g.epoch 1);
    Reclaimer.invalidate ctx.g.eng
  end;
  (* The epoch announcement is the one fenced write per operation. *)
  Atomic.set ctx.my_epoch (Atomic.get ctx.g.epoch)

let poll ctx = Softsignal.poll ctx.port

let check ctx n = if n.Heap.seq land 1 = 1 then Heap.check_access ctx.g.heap n

let alloc ctx = Heap.alloc ctx.g.heap ~tid:ctx.tid ~birth_era:(Atomic.get ctx.g.epoch)

(* The lowest announced epoch: every node retired before it is free of
   epoch-protected readers. *)
let floor g =
  let min_epoch = ref max_int in
  for tid = 0 to g.cfg.max_threads - 1 do
    let e = Striped.get g.reserved_epoch tid in
    if e < !min_epoch then min_epoch := e
  done;
  !min_epoch

(* Algorithm 3, RECLAIMEPOCHFREEABLE: plain EBR reclamation, skipped
   while the floor has not risen (see the .mli), so a stalled peer costs
   memory rather than quadratic scan time. *)
let reclaim_epoch ctx =
  let min_epoch = floor ctx.g in
  if min_epoch > ctx.epoch_floor then begin
    ctx.epoch_floor <- min min_epoch (Atomic.get ctx.g.epoch);
    ignore
      (Reclaimer.scan_plain ~kind:Reclaimer.Plain
         ~keep:(fun n -> n.Heap.retire_era >= min_epoch)
         ctx.rl)
  end
  else Reclaimer.note_skip ctx.rl

(* Algorithm 3 line 26: the POP fallback (RECLAIMHPFREEABLE). *)
let reclaim_pop ?force ctx =
  let g = ctx.g in
  let collect scratch =
    let timeouts = Handshake.round g.hs ~port:ctx.port in
    Reservations.publish g.res ~tid:ctx.tid;
    let k = Reservations.collect_shared g.res scratch in
    (* A timed-out peer never published its reservations, but it announced
       its epoch eagerly at STARTOP, so the EBR floor already bounds what
       it can hold: any node it read during its current op was retired at
       or after that announcement (the RECLAIMEPOCHFREEABLE argument).
       Keep every node at or above the lowest stuck announcement.

       A {e quarantined} peer is different: the failure detector says it
       stopped polling entirely, so honouring its announcement would pin
       every node retired since it crashed, forever — the unbounded
       garbage EBR suffers. For suspects we union in a racy copy of the
       private reservation row instead (the HazardPtrPOP fallback: a
       peer deaf for whole rounds has not executed READ since long
       before the ping, so its last plain reservation stores are
       visible, and an unvalidated reservation is safe to honour) and
       exclude them from the floor. Garbage pinned by a crashed peer is
       then bounded by its max_hp row, not by time. *)
    let k = ref k in
    let stuck_epoch = ref max_int in
    if timeouts > 0 then
      for tid = 0 to g.cfg.max_threads - 1 do
        if Handshake.timed_out g.hs ~port:ctx.port tid then
          if Handshake.suspected g.hs tid then
            k := Reservations.append_local_row g.res ~tid ~into:scratch ~pos:!k
          else begin
            let e = Striped.get g.reserved_epoch tid in
            if e < !stuck_epoch then stuck_epoch := e
          end
      done;
    ctx.stuck_epoch <- !stuck_epoch;
    !k
  in
  ignore
    (Reclaimer.scan ?force ~kind:Reclaimer.Pop ~collect ~except:no_id
       ~keep:(fun n ->
         Id_set.mem (Reclaimer.snapshot ctx.rl) n.Heap.id
         || n.Heap.retire_era >= ctx.stuck_epoch)
       ctx.rl)

let retire ctx n =
  let g = ctx.g in
  n.Heap.retire_era <- Atomic.get g.epoch;
  Reclaimer.retire ctx.rl n;
  let len = Reclaimer.pending ctx.rl in
  let freq = Reclaimer.threshold g.eng in
  if len mod freq = 0 then begin
    reclaim_epoch ctx;
    (* Still too much garbage after an epoch pass: suspect a delayed
       thread and fall back to publish-on-ping. *)
    if g.fallback && Reclaimer.pending ctx.rl >= g.cfg.pop_mult * freq then reclaim_pop ctx
  end
  else if len > freq && len mod g.cfg.segment_size = 0 then
    (* A pass that a lagging announcement blocked is retried once per
       segment block, and runs as soon as the floor moves, not a whole
       threshold later: the peer usually catches up within a few
       hundred retires. *)
    reclaim_epoch ctx

let free_unpublished ctx n = Reclaimer.free_unpublished ctx.rl n

let enter_write_phase _ctx _nodes = ()

let flush ctx =
  if not (Reclaimer.is_empty ctx.rl) then begin
    ignore (Atomic.fetch_and_add ctx.g.epoch 1);
    Reclaimer.invalidate ctx.g.eng;
    ctx.epoch_floor <- min_int;
    reclaim_epoch ctx;
    if ctx.g.fallback && not (Reclaimer.is_empty ctx.rl) then reclaim_pop ~force:true ctx
  end

let deregister ctx =
  Striped.set ctx.g.reserved_epoch ctx.tid max_int;
  Reservations.clear_local ctx.g.res ~tid:ctx.tid;
  Reservations.clear_shared ctx.g.res ~tid:ctx.tid;
  (* Scan survivors go to the orphanage; a peer's next pass adopts them. *)
  Reclaimer.donate ctx.rl;
  Softsignal.deregister ctx.port

let unreclaimed g = Counters.unreclaimed g.c

let stats g = Counters.snapshot ~heap:g.heap ~hs:g.hs g.c ~hub:g.hub ~epoch:(Atomic.get g.epoch)
