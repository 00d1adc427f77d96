open Pop_runtime

(* Failure-detector state for one peer slot. Mutated racily by whichever
   reclaimer runs a handshake round: every field is an immediate (int or
   bool), so concurrent updates cannot tear, and a lost update only
   delays or hastens a quarantine decision. Safety never depends on this
   state — a skipped suspect is reported as timed out and the caller
   takes the same conservative fallback it would take after burning the
   full spin budget. *)
type peer = {
  mutable strikes : int; (* consecutive timeouts with a stale heartbeat *)
  mutable hb_snap : int; (* heartbeat observed at the last timeout *)
  mutable quarantined : bool;
  mutable backoff_rounds : int; (* rounds between re-probes, doubling *)
  mutable next_probe : int; (* round number of the next allowed probe *)
}

type t = {
  counters : Striped.t;
  hub : Softsignal.t;
  timeout_spins : int;
  suspect_after : int;
  peers : peer array;
  snaps : int array array; (* per caller tid: counter snapshots of its round *)
  timed_out : bool array array; (* per caller tid: peers its last round gave up on *)
  timeouts : Striped.t; (* per caller tid: peer timeouts, cumulative *)
  rounds : int Atomic.t; (* global handshake-round clock *)
  suspects : int Atomic.t; (* quarantine transitions, cumulative *)
  quarantine_skips : int Atomic.t; (* probes skipped while quarantined *)
}

(* Ceiling, in rounds, on the doubling re-probe interval of a suspect. *)
let backoff_cap = 64

let create (cfg : Smr_config.t) hub =
  let n = Softsignal.max_threads hub in
  {
    counters = Striped.create n;
    hub;
    timeout_spins = cfg.ping_timeout_spins;
    suspect_after = cfg.suspect_after;
    peers =
      Array.init n (fun _ ->
          {
            strikes = 0;
            hb_snap = 0;
            quarantined = false;
            backoff_rounds = 1;
            next_probe = 0;
          });
    snaps = Array.init n (fun _ -> Array.make n 0);
    timed_out = Array.init n (fun _ -> Array.make n false);
    timeouts = Striped.create n;
    rounds = Atomic.make 0;
    suspects = Atomic.make 0;
    quarantine_skips = Atomic.make 0;
  }

let ack t ~tid = Striped.incr t.counters tid

let get t tid = Striped.get t.counters tid

let suspected t tid = t.peers.(tid).quarantined

let suspect_count t = Atomic.get t.suspects

let quarantine_round_count t = Atomic.get t.quarantine_skips

let timed_out t ~port tid = t.timed_out.(Softsignal.tid port).(tid)

let timeout_count t = Striped.sum t.timeouts

(* In a round, the caller's snapshot row [scratch.(tid)] holds the
   counter snapshot taken just before [tid]'s ping, or [skip] for
   threads the ping did not reach (self, dead slots, and threads that
   registered after the ping round — the latter cannot hold references
   to nodes retired before they existed, exactly like a thread created
   after a pthread_kill round, so they are excluded), or [quarantined]
   for suspects whose re-probe is not yet due: those are reported timed
   out immediately, without a ping or a wait. *)
let skip = -1

let quarantined = -2

let lift_quarantine p =
  p.quarantined <- false;
  p.strikes <- 0;
  p.backoff_rounds <- 1

let note_timeout t ~round p ~hb =
  if p.quarantined then begin
    (* A due re-probe failed: back off exponentially before the next. *)
    p.hb_snap <- hb;
    p.backoff_rounds <- min backoff_cap (p.backoff_rounds * 2);
    p.next_probe <- round + p.backoff_rounds
  end
  else if p.strikes > 0 && hb = p.hb_snap then begin
    p.strikes <- p.strikes + 1;
    if p.strikes >= t.suspect_after then begin
      p.quarantined <- true;
      p.backoff_rounds <- 1;
      p.next_probe <- round + 1;
      Atomic.incr t.suspects
    end
  end
  else begin
    (* First timeout, or the heartbeat moved since the last one: the
       peer is polling, just slow to ack — restart the strike count. *)
    p.strikes <- 1;
    p.hb_snap <- hb
  end

let round t ~port =
  let self = Softsignal.tid port in
  let scratch = t.snaps.(self) and timed_out = t.timed_out.(self) in
  let n = Softsignal.max_threads t.hub in
  let round = Atomic.fetch_and_add t.rounds 1 in
  for tid = 0 to n - 1 do
    timed_out.(tid) <- false;
    if tid = self then scratch.(tid) <- skip
    else begin
      let p = t.peers.(tid) in
      if p.quarantined then begin
        if not (Softsignal.is_active t.hub tid) then
          (* The suspect deregistered (or crashed and was reaped): a dead
             slot holds nothing, same as the normal dead-slot skip. *)
          scratch.(tid) <- skip
        else if Softsignal.heartbeat t.hub tid <> p.hb_snap then begin
          (* Heartbeat moved: the occupant is polling again (or the slot
             was re-registered). Lift the quarantine and ping normally. *)
          lift_quarantine p;
          let snap = Striped.get t.counters tid in
          scratch.(tid) <- (if Softsignal.ping t.hub tid then snap else skip)
        end
        else if round >= p.next_probe then begin
          (* Re-probe due: ping and give it one more bounded wait. *)
          let snap = Striped.get t.counters tid in
          scratch.(tid) <- (if Softsignal.ping t.hub tid then snap else skip)
        end
        else scratch.(tid) <- quarantined
      end
      else begin
        (* Snapshot before pinging (COLLECTPUBLISHEDCOUNTERS before
           PINGALLTOPUBLISH): an ack after the ping is then provably a
           publish that completed after this round began. *)
        let snap = Striped.get t.counters tid in
        scratch.(tid) <- (if Softsignal.ping t.hub tid then snap else skip)
      end
    end
  done;
  let timeouts = ref 0 in
  let b = Backoff.make () in
  for tid = 0 to n - 1 do
    if scratch.(tid) = quarantined then begin
      (* Suspect skipped without a ping: report the timeout immediately
         so the caller takes its conservative fallback without paying
         the spin budget against a peer that stopped polling. *)
      scratch.(tid) <- skip;
      timed_out.(tid) <- true;
      incr timeouts;
      Atomic.incr t.quarantine_skips
    end
    else if scratch.(tid) <> skip then begin
      Backoff.reset b;
      let spins = ref 0 in
      while
        Softsignal.is_active t.hub tid
        && Striped.get t.counters tid <= scratch.(tid)
        && !spins < t.timeout_spins
      do
        (* Serve pings aimed at us while we wait, or two concurrent
           reclaimers deadlock waiting for each other's publish. *)
        Softsignal.poll port;
        Backoff.once b;
        incr spins
      done;
      (* A POSIX signal cannot be ignored, so the paper's wait always
         terminates; a soft-signal peer that never polls would wedge us
         forever. After the spin budget we give up on its publish: the
         caller must then treat everything that peer might hold as
         reserved (its racily-readable reservation rows and/or its
         announced epoch) instead of relying on a fresh publish. *)
      if
        !spins >= t.timeout_spins
        && Softsignal.is_active t.hub tid
        && Striped.get t.counters tid <= scratch.(tid)
      then begin
        timed_out.(tid) <- true;
        incr timeouts;
        note_timeout t ~round t.peers.(tid) ~hb:(Softsignal.heartbeat t.hub tid)
      end
      else begin
        let p = t.peers.(tid) in
        if p.quarantined || p.strikes > 0 then lift_quarantine p
      end
    end
  done;
  if !timeouts > 0 then Striped.add t.timeouts self !timeouts;
  !timeouts
