open Pop_runtime

type stall_spec = {
  stall_tid : int;
  stall_after : float;
  stall_for : float;
  stall_polling : bool;
}

type churn_event = Exit | Crash | Join

type churn_spec = {
  exits : int;
  crashes : int;
  joins : int;
  churn_start : float;
  churn_period : float;
}

type cfg = {
  ds : Dispatch.ds_kind;
  smr : Dispatch.smr_kind;
  threads : int;
  duration : float;
  key_range : int;
  mix : Workload.mix;
  reclaim_freq : int;
  epoch_freq : int;
  pop_mult : int;
  long_running_reads : bool;
  near_head_span : int;
  stall : stall_spec option;
  churn : churn_spec option;
  ping_timeout_spins : int;
  suspect_after : int;
  segment_size : int;
  drop_ping : float;
  delay_poll : float;
  seed : int;
  sanitize : bool;
  kv : bool;
  kv_mix : Workload.kv_mix;
  zipf_theta : float;
  arrival_rate : float;
}

let default_cfg =
  let smr = Pop_core.Smr_config.default () in
  {
    ds = Dispatch.HML;
    smr = Dispatch.EPOCHPOP;
    threads = 2;
    duration = 0.5;
    key_range = 2048;
    mix = Workload.update_heavy;
    reclaim_freq = smr.reclaim_freq;
    epoch_freq = smr.epoch_freq;
    pop_mult = smr.pop_mult;
    long_running_reads = false;
    near_head_span = 64;
    stall = None;
    churn = None;
    ping_timeout_spins = smr.ping_timeout_spins;
    suspect_after = smr.suspect_after;
    segment_size = smr.segment_size;
    drop_ping = 0.0;
    delay_poll = 0.0;
    seed = 42;
    sanitize = false;
    kv = false;
    kv_mix = Workload.kv_default;
    zipf_theta = 0.0;
    arrival_rate = 0.0;
  }

type result = {
  r_cfg : cfg;
  total_ops : int;
  read_ops : int;
  update_ops : int;
  mops : float;
  read_mops : float;
  pre_mops : float;
  recovery_ns : int;
  recovered : bool;
  max_live : int;
  max_unreclaimed : int;
  final_unreclaimed : int;
  final_live : int;
  uaf : int;
  double_free : int;
  final_size : int;
  expected_size : int;
  invariants_ok : bool;
  invariant_error : string;
  exited : int;
  crashed : int;
  joined : int;
  smr : Pop_core.Smr_stats.t;
  violations_by_category : (string * int) list;
  latency : Histogram.t;
}

(* Per-worker tally, returned through Domain.join — no shared state.
   [fate]: 0 = ran to the stop flag, 1 = exited early (clean
   deregister), 2 = crashed (abandoned everything mid-operation).
   [lat] is only populated in KV mode (empty otherwise). *)
type tally = {
  ops : int;
  reads : int;
  updates : int;
  net_inserts : int;
  fate : int;
  lat : Histogram.t;
}

let ds_config cfg = Pop_ds.Ds_config.default ~key_range:cfg.key_range

let smr_config cfg ~max_threads =
  (* The skip list holds a pred+succ reservation per level. *)
  let needed_hp =
    match cfg.ds with
    | Dispatch.SL -> (2 * (ds_config cfg).Pop_ds.Ds_config.skip_levels) + 2
    | _ -> 0
  in
  {
    Pop_core.Smr_config.max_threads;
    max_hp = max (Pop_core.Smr_config.default ()).max_hp needed_hp;
    reclaim_freq = cfg.reclaim_freq;
    epoch_freq = cfg.epoch_freq;
    pop_mult = cfg.pop_mult;
    ping_timeout_spins = cfg.ping_timeout_spins;
    segment_size = cfg.segment_size;
    suspect_after = cfg.suspect_after;
  }

(* Bounded spin-wait for the harness's own busy loops (start barrier,
   ready barrier, open-loop idling). A bare [Domain.cpu_relax] loop is
   fine when every domain has a core, but oversubscribed (domains >
   cores) it burns whole scheduling quanta and starves the very workers
   — and ping handlers — it is waiting on. After [spin_yield_after]
   relaxes the wait escalates to short timed sleeps, which actually cede
   the core. [poll] runs every iteration so a waiting worker keeps
   serving soft-signal pings even while ahead of its open-loop
   schedule. *)
let spin_yield_after = 4096

let spin_wait ?(poll = fun () -> ()) cond =
  let spins = ref 0 in
  while not (cond ()) do
    poll ();
    if !spins < spin_yield_after then begin
      incr spins;
      Domain.cpu_relax ()
    end
    else Unix.sleepf 5e-5
  done

let run cfg =
  Workload.validate cfg.mix;
  if cfg.kv then Workload.validate_kv cfg.kv_mix;
  if cfg.arrival_rate < 0.0 then
    invalid_arg "Runner.run: arrival_rate must be non-negative (0 = closed loop)";
  if cfg.threads < 1 then invalid_arg "Runner.run: need at least one thread";
  (match cfg.churn with
  | None -> ()
  | Some c ->
      if c.exits < 0 || c.crashes < 0 || c.joins < 0 then
        invalid_arg "Runner.run: churn event counts must be non-negative";
      if c.joins > c.exits then
        invalid_arg "Runner.run: churn joins need cleanly released tids (joins <= exits)";
      if c.churn_start < 0.0 || c.churn_period <= 0.0 then
        invalid_arg "Runner.run: churn_start must be >= 0 and churn_period > 0");
  let (module S) = Dispatch.set_module ~sanitize:cfg.sanitize cfg.ds cfg.smr in
  (* Thread ids: workers use 0 .. threads-1; the main thread uses the
     extra slot for prefill and releases it before the run. *)
  let hub = Softsignal.create ~max_threads:(cfg.threads + 1) in
  if cfg.drop_ping > 0.0 || cfg.delay_poll > 0.0 then
    Softsignal.inject_faults hub ~seed:cfg.seed ~drop_ping:cfg.drop_ping
      ~delay_poll:cfg.delay_poll;
  let set = S.create (smr_config cfg ~max_threads:(cfg.threads + 1)) (ds_config cfg) ~hub in
  let prefill_count = ref 0 in
  let pctx = S.register set ~tid:cfg.threads in
  List.iter
    (fun k -> if S.insert pctx k then incr prefill_count)
    (Workload.prefill_keys ~key_range:cfg.key_range);
  S.flush pctx;
  S.deregister pctx;
  (* Isolate cells from each other: without this, the major-GC debt of a
     leaky previous cell (NR piles up millions of words) is collected
     during — and billed to — whichever cell runs next. *)
  Gc.compact ();
  let start = Atomic.make false in
  let stop = Atomic.make false in
  let ready = Atomic.make 0 in
  (* Churn plumbing: [commands.(tid)] is written by the sampling loop
     (0 = run, 1 = exit cleanly, 2 = crash) and polled by the worker
     once per operation; [wstatus.(tid)] is written by the worker as it
     leaves (1 = deregistered, 2 = crashed) so the scheduler knows when
     a slot is reusable by a join. *)
  let commands = Array.init cfg.threads (fun _ -> Atomic.make 0) in
  let wstatus = Array.init cfg.threads (fun _ -> Atomic.make 0) in
  (* Monotone per-slot op counters read by the sampling loop, so the
     recovery score can compare throughput before and after a
     disruption without waiting for Domain.join. Fetch-and-add keeps a
     slot monotone across churn reuse (a joining worker continues the
     count its predecessor left). *)
  let progress = Array.init cfg.threads (fun _ -> Atomic.make 0) in
  let worker tid () =
    let ctx = S.register set ~tid in
    let rng = Rng.make (cfg.seed + (7919 * (tid + 1))) in
    let reader_role = cfg.long_running_reads && tid < cfg.threads / 2 in
    let updater_span = max 1 (min cfg.near_head_span cfg.key_range) in
    let ops = ref 0 and reads = ref 0 and updates = ref 0 and net = ref 0 in
    let lat = Histogram.create () in
    let stalled = ref false in
    let quit = ref 0 in
    let t0 = ref 0.0 in
    let check_stall () =
      match cfg.stall with
      | Some sp
        when sp.stall_tid = tid && (not !stalled) && Clock.elapsed !t0 >= sp.stall_after ->
          stalled := true;
          (* Wake on [stop]: a deaf stall must not outlive the run, or
             the configured duration bound (and Domain.join) is lost. *)
          S.stall ctx
            ~wake:(fun () -> Atomic.get stop)
            ~seconds:sp.stall_for ~polling:sp.stall_polling
      | _ -> ()
    in
    Atomic.incr ready;
    spin_wait (fun () -> Atomic.get start);
    t0 := Clock.now ();
    if cfg.kv then begin
      (* KV-service loop, latency-instrumented. Open loop when
         [arrival_rate > 0]: each worker draws its own Poisson stream at
         1/threads of the aggregate rate, and an op's latency runs from
         its *scheduled* arrival to completion — a worker that falls
         behind accrues queueing delay instead of silently shedding
         load, which is what makes reclamation pauses visible at the
         tail. Closed loop (rate = 0) measures bare service time. *)
      let kg = Workload.keygen ~key_range:cfg.key_range ~theta:cfg.zipf_theta in
      let rate = cfg.arrival_rate /. float_of_int cfg.threads in
      let open_loop = rate > 0.0 in
      let next_arrival = ref 0.0 in
      while !quit = 0 && not (Atomic.get stop) do
        check_stall ();
        let op = Workload.gen_kv rng cfg.kv_mix kg ~key_range:cfg.key_range in
        if open_loop then begin
          next_arrival := !next_arrival +. Workload.exp_interval rng ~rate;
          (* Ahead of schedule: idle (still serving pings) until due. *)
          spin_wait
            ~poll:(fun () -> S.poll ctx)
            (fun () -> Clock.elapsed !t0 >= !next_arrival || Atomic.get stop)
        end;
        let op_start = Clock.elapsed !t0 in
        (match op with
        | Workload.Get k ->
            ignore (S.contains ctx k);
            incr reads
        | Workload.Set k ->
            if S.insert ctx k then incr net;
            incr updates
        | Workload.Cas k ->
            (* Read-modify-write over a SET: replace the key if present
               (delete + re-insert — two traversals and a retire, like a
               value swap would be), else behave as an insert-if-absent.
               Not atomic end-to-end, which is fine for a latency
               workload: consistency accounting uses the actual return
               values. *)
            if S.contains ctx k then begin
              if S.delete ctx k then decr net;
              if S.insert ctx k then incr net
            end
            else if S.insert ctx k then incr net;
            incr updates
        | Workload.Remove k ->
            if S.delete ctx k then decr net;
            incr updates);
        let finished = Clock.elapsed !t0 in
        let since = if open_loop then !next_arrival else op_start in
        Histogram.record_s lat (finished -. since);
        incr ops;
        Atomic.incr progress.(tid);
        S.poll ctx;
        quit := Atomic.get commands.(tid)
      done
    end
    else
      while !quit = 0 && not (Atomic.get stop) do
        check_stall ();
        let op =
          if cfg.long_running_reads then
            if reader_role then Workload.Contains (Rng.int rng cfg.key_range)
            else if Rng.bool rng then Workload.Insert (Rng.int rng updater_span)
            else Workload.Delete (Rng.int rng updater_span)
          else Workload.gen rng cfg.mix ~key_range:cfg.key_range
        in
        (match op with
        | Workload.Contains k ->
            ignore (S.contains ctx k);
            incr reads
        | Workload.Insert k ->
            if S.insert ctx k then incr net;
            incr updates
        | Workload.Delete k ->
            if S.delete ctx k then decr net;
            incr updates);
        incr ops;
        Atomic.incr progress.(tid);
        S.poll ctx;
        quit := Atomic.get commands.(tid)
      done;
    let fate =
      if !quit = 2 then begin
        (* Die mid-operation: the open op, raised reservations, retire
           buffer and soft-signal slot are all abandoned. The domain
           itself still returns (we are simulating a thread crash, not
           a process one), so Domain.join stays clean. *)
        S.crash ctx;
        2
      end
      else begin
        S.flush ctx;
        S.deregister ctx;
        if !quit = 1 then 1 else 0
      end
    in
    Atomic.set wstatus.(tid) (if fate = 2 then 2 else 1);
    { ops = !ops; reads = !reads; updates = !updates; net_inserts = !net; fate; lat }
  in
  let domains = Array.init cfg.threads (fun tid -> Domain.spawn (worker tid)) in
  spin_wait (fun () -> Atomic.get ready >= cfg.threads);
  (* Churn scheduler state (all main-thread-only): a seeded shuffle of
     the configured events, fired one per [churn_period] from
     [churn_start]. An event with no eligible slot (a join before any
     exit completed, a leave that would empty the set of workers) stays
     in the queue and is retried on the next sample — but must not
     block the events behind it: a join shuffled ahead of every exit
     can only become fireable after an exit frees a slot, so each due
     tick fires the first *fireable* event in schedule order. *)
  let slot_state = Array.make cfg.threads 0 in
  (* 0 = running, 1 = leaving, 2 = free, 3 = dead *)
  let joined = ref 0 in
  let joined_domains = ref [] in
  let churn_rng = Rng.make (cfg.seed + 104729) in
  let pending =
    ref
      (match cfg.churn with
      | None -> []
      | Some c ->
          let evs =
            Array.of_list
              (List.concat
                 [
                   List.init c.exits (fun _ -> Exit);
                   List.init c.crashes (fun _ -> Crash);
                   List.init c.joins (fun _ -> Join);
                 ])
          in
          for i = Array.length evs - 1 downto 1 do
            let j = Rng.int churn_rng (i + 1) in
            let t = evs.(i) in
            evs.(i) <- evs.(j);
            evs.(j) <- t
          done;
          Array.to_list evs)
  in
  let next_due =
    ref (match cfg.churn with Some c -> c.churn_start | None -> infinity)
  in
  let refresh_slots () =
    Array.iteri
      (fun tid st -> if st = 1 && Atomic.get wstatus.(tid) = 1 then slot_state.(tid) <- 2)
      slot_state
  in
  (* The stall target must not also churn: both own the same worker. *)
  let stall_tid = match cfg.stall with Some sp -> sp.stall_tid | None -> -1 in
  let pick p =
    let eligible = ref 0 in
    Array.iteri (fun tid st -> if p tid st then incr eligible) slot_state;
    if !eligible = 0 then None
    else begin
      let k = ref (Rng.int churn_rng !eligible) in
      let found = ref None in
      Array.iteri
        (fun tid st ->
          if p tid st && Option.is_none !found then
            if !k = 0 then found := Some tid else decr k)
        slot_state;
      !found
    end
  in
  let running () =
    Array.fold_left (fun a st -> if st = 0 then a + 1 else a) 0 slot_state
  in
  let fire ev =
    match ev with
    | Exit | Crash ->
        (* Keep at least one worker running: someone must survive to
           adopt orphans and keep the handshake's quorum meaningful. *)
        if running () < 2 then false
        else begin
          match pick (fun tid st -> st = 0 && tid <> stall_tid) with
          | None -> false
          | Some tid ->
              (match ev with
              | Exit ->
                  Atomic.set commands.(tid) 1;
                  slot_state.(tid) <- 1
              | Crash ->
                  Atomic.set commands.(tid) 2;
                  slot_state.(tid) <- 3
              | Join -> ());
              true
        end
    | Join -> (
        match pick (fun _ st -> st = 2) with
        | None -> false
        | Some tid ->
            Atomic.set commands.(tid) 0;
            Atomic.set wstatus.(tid) 0;
            slot_state.(tid) <- 0;
            joined_domains := Domain.spawn (worker tid) :: !joined_domains;
            incr joined;
            true)
  in
  let t_start = Clock.now () in
  Atomic.set start true;
  (* Sampling loop: track peak memory while the workload runs, and fire
     due churn events. *)
  let max_live = ref 0 and max_unreclaimed = ref 0 in
  (* (elapsed, total ops) history, newest first, for recovery scoring. *)
  let samples = ref [] in
  let churn_done = ref None in
  let sample () =
    max_live := max !max_live (S.heap_live set);
    max_unreclaimed := max !max_unreclaimed (S.smr_unreclaimed set);
    let total = Array.fold_left (fun a p -> a + Atomic.get p) 0 progress in
    samples := (Clock.elapsed t_start, total) :: !samples
  in
  while Clock.elapsed t_start < cfg.duration do
    Unix.sleepf 0.01;
    refresh_slots ();
    (match (!pending, cfg.churn) with
    | _ :: _, Some c when Clock.elapsed t_start >= !next_due ->
        let rec fire_first acc = function
          | [] -> None
          | ev :: rest ->
              if fire ev then Some (List.rev_append acc rest)
              else fire_first (ev :: acc) rest
        in
        (match fire_first [] !pending with
        | Some rest ->
            pending := rest;
            if rest = [] then churn_done := Some (Clock.elapsed t_start);
            next_due := !next_due +. c.churn_period
        | None -> ())
    | _ -> ());
    sample ()
  done;
  Atomic.set stop true;
  let tallies =
    Array.append (Array.map Domain.join domains)
      (Array.of_list (List.map Domain.join !joined_domains))
  in
  let elapsed = Clock.elapsed t_start in
  sample ();
  let total_ops = Array.fold_left (fun a t -> a + t.ops) 0 tallies in
  let read_ops = Array.fold_left (fun a t -> a + t.reads) 0 tallies in
  let update_ops = Array.fold_left (fun a t -> a + t.updates) 0 tallies in
  let net = Array.fold_left (fun a t -> a + t.net_inserts) 0 tallies in
  let latency = Histogram.create () in
  Array.iter (fun t -> Histogram.merge_into latency ~src:t.lat) tallies;
  let invariants_ok, invariant_error =
    match S.check_invariants set with
    | () -> (true, "")
    | exception Failure msg -> (false, msg)
  in
  (* Recovery scoring: pre-disruption throughput is the mean rate up to
     the last 10 ms sample taken before the disruption began;
     recovery is the first post-disruption instant whose trailing
     ~30 ms window regains 90% of that rate. A disruption that outlives
     the run (a deaf stall pinned to the stop flag) reports
     [recovered = false] with a zero — still finite — recovery time. *)
  let disruption =
    match (cfg.stall, cfg.churn) with
    | Some sp, _ -> Some (sp.stall_after, sp.stall_after +. sp.stall_for)
    | None, Some c ->
        Some (c.churn_start, match !churn_done with Some t -> t | None -> elapsed)
    | None, None -> None
  in
  let samples_chrono = Array.of_list (List.rev !samples) in
  let pre_mops, recovery_ns, recovered =
    match disruption with
    | None -> (0.0, 0, true)
    | Some (d_start, d_end) ->
        let pre_rate =
          Array.fold_left
            (fun acc (t, n) ->
              if t <= d_start && t > 0.0 then float_of_int n /. t else acc)
            0.0 samples_chrono
        in
        if pre_rate <= 0.0 then (0.0, 0, true)
        else if d_end >= elapsed then (pre_rate /. 1e6, 0, false)
        else begin
          let w = 3 in
          let found = ref None in
          for i = w to Array.length samples_chrono - 1 do
            let t1, n1 = samples_chrono.(i) and t0, n0 = samples_chrono.(i - w) in
            if Option.is_none !found && t0 >= d_end && t1 > t0 then
              if float_of_int (n1 - n0) /. (t1 -. t0) >= 0.9 *. pre_rate then
                found := Some t1
          done;
          match !found with
          | Some t -> (pre_rate /. 1e6, max 0 (int_of_float ((t -. d_end) *. 1e9)), true)
          | None ->
              (pre_rate /. 1e6, max 0 (int_of_float ((elapsed -. d_end) *. 1e9)), false)
        end
  in
  {
    r_cfg = cfg;
    total_ops;
    read_ops;
    update_ops;
    mops = float_of_int total_ops /. elapsed /. 1e6;
    read_mops = float_of_int read_ops /. elapsed /. 1e6;
    pre_mops;
    recovery_ns;
    recovered;
    max_live = !max_live;
    max_unreclaimed = !max_unreclaimed;
    final_unreclaimed = S.smr_unreclaimed set;
    final_live = S.heap_live set;
    uaf = S.heap_uaf set;
    double_free = S.heap_double_free set;
    final_size = S.size_seq set;
    expected_size = !prefill_count + net;
    invariants_ok;
    invariant_error;
    (* Counted from worker fates, not fired events: a command that the
       stop flag beat to the worker never actually happened. *)
    exited = Array.fold_left (fun a t -> if t.fate = 1 then a + 1 else a) 0 tallies;
    crashed = Array.fold_left (fun a t -> if t.fate = 2 then a + 1 else a) 0 tallies;
    joined = !joined;
    (* Read stats before the breakdown: the stats-time audits in the
       sanitizer update their per-category tallies as a side effect. *)
    smr = S.smr_stats set;
    violations_by_category = S.smr_violations set;
    latency;
  }

let consistent r =
  r.final_size = r.expected_size && r.invariants_ok && r.uaf = 0 && r.double_free = 0

(* The scenario descriptor makes each emitted row self-describing: every
   parameter needed to reproduce the cell from the committed JSON alone
   (disruption shape, load shape, seed) travels with the measurement. *)
let scenario_json cfg =
  let cores = Domain.recommended_domain_count () in
  Json.Obj
    [
      ("seed", Int cfg.seed); ("threads", Int cfg.threads); ("cores", Int cores);
      ("oversubscribed", Bool (cfg.threads > cores));
      ( "stall",
        match cfg.stall with
        | None -> Null
        | Some sp ->
            Obj [ ("tid", Int sp.stall_tid); ("after", Float sp.stall_after);
                  ("for", Float sp.stall_for); ("polling", Bool sp.stall_polling) ] );
      ( "churn",
        match cfg.churn with
        | None -> Null
        | Some c ->
            Obj [ ("exits", Int c.exits); ("crashes", Int c.crashes); ("joins", Int c.joins);
                  ("start", Float c.churn_start); ("period", Float c.churn_period) ] );
      ("kv", Bool cfg.kv); ("zipf_theta", Float cfg.zipf_theta);
      ("arrival_rate", Float cfg.arrival_rate); ("duration", Float cfg.duration);
      ("ping_timeout_spins", Int cfg.ping_timeout_spins); ("sanitize", Bool cfg.sanitize);
    ]

let cell_json label r =
  let cfg = r.r_cfg and s = r.smr in
  (* Latency percentiles in microseconds (0 outside KV mode, where no
     samples are recorded), plus the worst single reclamation-pass
     pause any thread absorbed. *)
  let us ns = Json.Float (float_of_int ns /. 1e3) in
  let lat q = us (Histogram.quantile r.latency q) in
  (* Amortization stats: frees per pass and the cache-hit ratio of the
     shared reclaimer's snapshot reuse. *)
  let passes = s.reclaim_passes + s.pop_passes in
  let ratio num den = Json.Float (if den = 0 then 0.0 else float_of_int num /. float_of_int den) in
  let counts alist = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) alist) in
  Json.Obj
    [
      ("label", String label); ("scenario", scenario_json cfg);
      ("ds", String (Dispatch.ds_name cfg.ds)); ("smr", String (Dispatch.smr_name cfg.smr));
      ("threads", Int cfg.threads); ("duration", Float cfg.duration);
      ("reclaim_freq", Int cfg.reclaim_freq);
      ("mops", Float r.mops); ("read_mops", Float r.read_mops); ("pre_mops", Float r.pre_mops);
      ("recovery_ns", Int r.recovery_ns); ("recovered", Bool r.recovered);
      ("kv", Bool cfg.kv); ("zipf_theta", Float cfg.zipf_theta); ("rate", Float cfg.arrival_rate);
      ("lat_count", Int (Histogram.count r.latency));
      ("p50", lat 0.50); ("p99", lat 0.99); ("p999", lat 0.999);
      ("max", us (Histogram.max_value r.latency)); ("max_pause", us s.max_pause_ns);
      ("total_ops", Int r.total_ops); ("read_ops", Int r.read_ops);
      ("update_ops", Int r.update_ops); ("max_live", Int r.max_live);
      ("max_unreclaimed", Int r.max_unreclaimed); ("final_unreclaimed", Int r.final_unreclaimed);
      ("uaf", Int r.uaf); ("double_free", Int r.double_free);
      ("exited", Int r.exited); ("crashed", Int r.crashed); ("joined", Int r.joined);
      ("consistent", Bool (consistent r));
      ("frees_per_pass", ratio s.freed passes);
      ("snapshot_reuse_ratio", ratio s.snapshot_reuses (passes + s.snapshot_reuses));
      (* Per-category sanitizer breakdown (empty object when the run was
         not sanitized: the plain typed facade reports no categories). *)
      ("violations_by_category", counts r.violations_by_category);
      ("smr", counts (Pop_core.Smr_stats.to_alist s));
    ]

let to_json ?(label = "") r = Json.to_string (cell_json label r)

let cells_json results = Json.List (List.map (fun (label, r) -> cell_json label r) results)
