type faults = {
  drop_ping : float; (* probability a ping is lost in flight *)
  delay_poll : float; (* probability a poll defers a pending ping *)
  fseed : int;
  events : int Atomic.t; (* deterministic per-event draw counter *)
}

type t = {
  pending : Striped.t; (* 0 = clear, 1 = pinged *)
  active : Striped.t; (* 0 = dead, 1 = alive *)
  heartbeats : Padded.t; (* bumped on every poll; failure-detector input *)
  handlers : (unit -> unit) array;
  sent : int Atomic.t;
  runs : int Atomic.t;
  dropped : int Atomic.t;
  delayed : int Atomic.t;
  mutable faults : faults option; (* set while quiescent, read racily *)
}

type port = {
  hub : t;
  id : int;
  my_pending : int Atomic.t;
  hb : int array; (* the heartbeat block, written only at [hb_at] *)
  hb_at : int;
}

let no_handler () = ()

let create ~max_threads =
  {
    pending = Striped.create max_threads;
    active = Striped.create max_threads;
    heartbeats = Padded.create ~max_threads ~width:1 0;
    handlers = Array.make max_threads no_handler;
    sent = Atomic.make 0;
    runs = Atomic.make 0;
    dropped = Atomic.make 0;
    delayed = Atomic.make 0;
    faults = None;
  }

let inject_faults t ~seed ~drop_ping ~delay_poll =
  if
    drop_ping < 0.0 || drop_ping > 1.0 || delay_poll < 0.0 || delay_poll > 1.0
  then invalid_arg "Softsignal.inject_faults: probabilities must be in [0,1]";
  if drop_ping = 0.0 && delay_poll = 0.0 then t.faults <- None
  else t.faults <- Some { drop_ping; delay_poll; fseed = seed; events = Atomic.make 0 }

let clear_faults t = t.faults <- None

(* One deterministic uniform draw per fault-injection event: hashing a
   seed plus a shared event counter keeps the stream reproducible for a
   fixed schedule without sharing mutable Rng state across domains.
   [unit_hash] is strictly < 1.0, so the [draw f < p] comparisons below
   fire with probability exactly p in units of 2^-53 — in particular a
   probability-1.0 fault now fires on *every* event, where the old
   bound-inclusive unit_hash could return 1.0 and skip one. *)
let draw f = Rng.unit_hash (f.fseed + Atomic.fetch_and_add f.events 1)

let max_threads t = Striped.length t.pending

let is_active t id = Striped.get t.active id = 1

let register t ~tid =
  if tid < 0 || tid >= max_threads t then invalid_arg "Softsignal.register: tid out of range";
  if is_active t tid then invalid_arg "Softsignal.register: slot already active";
  t.handlers.(tid) <- no_handler;
  Striped.set t.pending tid 0;
  (* A fresh registrant starts from a moved heartbeat so a detector that
     quarantined the slot's previous (crashed) occupant re-probes it. *)
  let hb = Padded.block t.heartbeats and hb_at = Padded.base t.heartbeats tid in
  hb.(hb_at) <- hb.(hb_at) + 1;
  Striped.set t.active tid 1;
  { hub = t; id = tid; my_pending = Striped.cell t.pending tid; hb; hb_at }

let set_handler p f = p.hub.handlers.(p.id) <- f

let tid p = p.id

let ping t id =
  if is_active t id then begin
    Atomic.incr t.sent;
    (match t.faults with
    | Some f when f.drop_ping > 0.0 && draw f < f.drop_ping ->
        (* Lost in flight: the sender believes it delivered (and must
           fall back to its timeout path), the receiver never sees it. *)
        Atomic.incr t.dropped
    | _ -> Striped.set t.pending id 1);
    true
  end
  else false

let ping_all t ~self =
  for id = 0 to max_threads t - 1 do
    if id <> self then ignore (ping t id)
  done

let poll p =
  (* Heartbeat first: a poll that finds no pending ping must still be
     visible to the failure detector, which distinguishes "slow to ack"
     from "stopped polling entirely". Single writer per slot, so a plain
     store on the owner's own line suffices: no barrier, no shared line.
     A peer reading it racily may see an older count, which can only add
     a strike or delay lifting a quarantine, the conservative fallback a
     timeout already takes. *)
  Array.unsafe_set p.hb p.hb_at (Array.unsafe_get p.hb p.hb_at + 1);
  if Atomic.get p.my_pending = 1 then begin
    let t = p.hub in
    match t.faults with
    | Some f when f.delay_poll > 0.0 && draw f < f.delay_poll ->
        (* Delivery deferred: the flag stays up for a later poll. *)
        Atomic.incr t.delayed
    | _ ->
        Atomic.set p.my_pending 0;
        Atomic.incr t.runs;
        t.handlers.(p.id) ()
  end

let pending p = Atomic.get p.my_pending = 1

let pending_cell p = p.my_pending

let deregister p =
  poll p;
  Striped.set p.hub.active p.id 0;
  (* A ping can land between the final poll and the deactivation (or the
     final poll may be fault-delayed). Clear the flag after deactivating
     so a dead slot is never left permanently pending; waiters unblock
     through the [is_active] check, like [pthread_kill] = [ESRCH]. A ping
     that raced past our [is_active] flip can still re-raise the flag
     afterwards, but [register] resets the slot, so no future registrant
     inherits it. *)
  Atomic.set p.my_pending 0;
  p.hub.handlers.(p.id) <- no_handler

let heartbeat t id = (Padded.block t.heartbeats).(Padded.base t.heartbeats id)

let pings_sent t = Atomic.get t.sent

let handler_runs t = Atomic.get t.runs

let pings_dropped t = Atomic.get t.dropped

let polls_delayed t = Atomic.get t.delayed
