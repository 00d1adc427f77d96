type scale = {
  duration : float;
  threads_list : int list;
  size_hml : int;
  size_ll : int;
  size_ht : int;
  size_dgt : int;
  size_abt : int;
  reclaim_freq : int;
  lrr_sizes : int list;
  lrr_threads : int;
  lrr_reclaim_freq : int;
  kv_rate : float;
  kv_theta : float;
}

let quick =
  {
    duration = 0.4;
    threads_list = [ 1; 2; 4 ];
    size_hml = 2048;
    size_ll = 2048;
    size_ht = 16384;
    size_dgt = 16384;
    size_abt = 32768;
    reclaim_freq = 512;
    lrr_sizes = [ 4096; 16384 ];
    lrr_threads = 4;
    lrr_reclaim_freq = 16;
    kv_rate = 20_000.0;
    kv_theta = 0.99;
  }

let full =
  {
    duration = 2.0;
    threads_list = [ 1; 2; 4; 8 ];
    size_hml = 2048;
    size_ll = 2048;
    size_ht = 131072;
    size_dgt = 65536;
    size_abt = 262144;
    reclaim_freq = 2048;
    lrr_sizes = [ 8192; 32768 ];
    lrr_threads = 8;
    lrr_reclaim_freq = 16;
    kv_rate = 50_000.0;
    kv_theta = 0.99;
  }

let size_of sc = function
  | Dispatch.HML -> sc.size_hml
  | Dispatch.LL -> sc.size_ll
  | Dispatch.HMHT -> sc.size_ht
  | Dispatch.DGT -> sc.size_dgt
  | Dispatch.ABT -> sc.size_abt
  | Dispatch.SL -> sc.size_hml * 4

let base_cfg sc ds smr threads =
  {
    Runner.default_cfg with
    ds;
    smr;
    threads;
    duration = sc.duration;
    key_range = size_of sc ds;
    reclaim_freq = sc.reclaim_freq;
  }

let flag r = if Runner.consistent r then "" else "!"

let fig_mixed ?(check = true) ~title ~mix ~dss ~smrs sc =
  let acc = ref [] in
  List.iter
    (fun ds ->
      Report.section
        (Printf.sprintf "%s : %s (size=%d, retire threshold=%d)" title (Dispatch.ds_name ds)
           (size_of sc ds) sc.reclaim_freq);
      let cells =
        List.map
          (fun smr ->
            ( smr,
              List.map
                (fun th -> Runner.run { (base_cfg sc ds smr th) with mix })
                sc.threads_list ))
          smrs
      in
      let th_headers tag = List.map (fun t -> Printf.sprintf "%s(t=%d)" tag t) sc.threads_list in
      Report.table
        ~header:
          (("algo" :: th_headers "Mops")
          @ th_headers "garb"
          @ [ "live(max t)"; "segs(max t)"; "snapreuse(max t)" ])
        ~rows:
          (List.map
             (fun (smr, rs) ->
               let marks = if check then String.concat "" (List.map flag rs) else "" in
               let last = List.nth rs (List.length rs - 1) in
               (Dispatch.smr_name smr ^ marks)
               :: (List.map (fun (r : Runner.result) -> Report.fmt_mops r.mops) rs
                  @ List.map
                      (fun (r : Runner.result) -> Report.fmt_count r.max_unreclaimed)
                      rs
                  @ [
                      Report.fmt_count last.max_live;
                      Report.fmt_count last.smr.retire_segments;
                      Report.fmt_count last.smr.snapshot_reuses;
                    ]))
             cells);
      List.iter (fun (_, rs) -> acc := rs @ !acc) cells)
    dss;
  !acc

let fig_update_heavy sc =
  fig_mixed ~title:"Fig 1-2 update-heavy (50i/50d)" ~mix:Workload.update_heavy
    ~dss:Dispatch.all_ds ~smrs:Dispatch.paper_smrs sc

let fig_read_heavy sc =
  fig_mixed ~title:"Fig 3 read-heavy (5i/5d/90c)" ~mix:Workload.read_heavy
    ~dss:[ Dispatch.ABT; Dispatch.DGT ] ~smrs:Dispatch.paper_smrs sc

let fig_read_heavy_appendix sc =
  fig_mixed ~title:"Fig 5-9 read-heavy (5i/5d/90c)" ~mix:Workload.read_heavy
    ~dss:[ Dispatch.HML; Dispatch.LL; Dispatch.HMHT ] ~smrs:Dispatch.paper_smrs sc

let fig_long_running_reads sc =
  let acc = ref [] in
  List.iter
    (fun size ->
      Report.section
        (Printf.sprintf
           "Fig 4 long-running reads : hml (size=%d, %d readers + %d updaters, retire \
            threshold=%d)"
           size (sc.lrr_threads / 2)
           (sc.lrr_threads - (sc.lrr_threads / 2))
           sc.lrr_reclaim_freq);
      let run smr =
        Runner.run
          {
            Runner.default_cfg with
            ds = Dispatch.HML;
            smr;
            threads = sc.lrr_threads;
            duration = sc.duration;
            key_range = size;
            reclaim_freq = sc.lrr_reclaim_freq;
            long_running_reads = true;
            near_head_span = 64;
          }
      in
      let nr = run Dispatch.NR in
      let others = List.filter (fun s -> s <> Dispatch.NR) Dispatch.paper_smrs in
      let cells = (Dispatch.NR, nr) :: List.map (fun smr -> (smr, run smr)) others in
      Report.table
        ~header:[ "algo"; "read Mops"; "read ratio vs nr"; "restarts"; "garb"; "live" ]
        ~rows:
          (List.map
             (fun (smr, (r : Runner.result)) ->
               [
                 Dispatch.smr_name smr ^ flag r;
                 Report.fmt_mops r.read_mops;
                 (if nr.read_mops > 0.0 then Printf.sprintf "%.2f" (r.read_mops /. nr.read_mops)
                  else "-");
                 Report.fmt_count r.smr.restarts;
                 Report.fmt_count r.max_unreclaimed;
                 Report.fmt_count r.max_live;
               ])
             cells);
      List.iter (fun (_, r) -> acc := r :: !acc) cells)
    sc.lrr_sizes;
  !acc

let fig_crystalline sc =
  fig_mixed ~title:"Fig 10-11 (incl. hyaline-1) update-heavy" ~mix:Workload.update_heavy
    ~dss:[ Dispatch.HML; Dispatch.HMHT ]
    ~smrs:(Dispatch.paper_smrs @ [ Dispatch.HYALINE1 ])
    sc

let fig_kv sc =
  let module Histogram = Pop_runtime.Histogram in
  let threads = List.fold_left max 2 sc.threads_list in
  let duration = max 1.0 sc.duration in
  let fmt_us us = Printf.sprintf "%.1f" us in
  let acc = ref [] in
  List.iter
    (fun ds ->
      Report.section
        (Printf.sprintf
           "KV service : %s (size=%d, %d threads, zipf theta=%.2f, open-loop %.0f \
            ops/s aggregate, 90g/6s/2c/2d, sanitized). Latency runs from scheduled \
            arrival to completion, so reclamation pauses surface as queueing delay at \
            the tail; max_pause is the longest single reclamation pass."
           (Dispatch.ds_name ds) (size_of sc ds) threads sc.kv_theta sc.kv_rate);
      let smrs = Dispatch.[ EBR; IBR; HP; HPPOP; HEPOP; EPOCHPOP ] in
      let cells =
        List.map
          (fun smr ->
            ( smr,
              Runner.run
                {
                  (base_cfg sc ds smr threads) with
                  duration;
                  kv = true;
                  kv_mix = Workload.kv_default;
                  zipf_theta = sc.kv_theta;
                  arrival_rate = sc.kv_rate;
                  sanitize = true;
                } ))
          smrs
      in
      Report.table
        ~header:
          [
            "algo"; "Kops"; "p50us"; "p99us"; "p999us"; "maxus"; "max_pause_us"; "garb";
          ]
        ~rows:
          (List.map
             (fun (smr, (r : Runner.result)) ->
               let q p = float_of_int (Histogram.quantile r.latency p) /. 1e3 in
               [
                 Dispatch.smr_name smr ^ flag r;
                 Printf.sprintf "%.0f" (r.mops *. 1e3);
                 fmt_us (q 0.50);
                 fmt_us (q 0.99);
                 fmt_us (q 0.999);
                 fmt_us (float_of_int (Histogram.max_value r.latency) /. 1e3);
                 fmt_us (float_of_int r.smr.max_pause_ns /. 1e3);
                 Report.fmt_count r.max_unreclaimed;
               ])
             cells);
      List.iter (fun (_, r) -> acc := r :: !acc) cells)
    [ Dispatch.HMHT; Dispatch.SL ];
  !acc

(* ------------------------------------------------------------------ *)
(* Robustness tournament: every scheme crossed with every adversarial  *)
(* scenario, scored on throughput, bounded garbage and recovery time.  *)
(* ------------------------------------------------------------------ *)

let tournament_smrs =
  Dispatch.[ EBR; IBR; HE; HP; HPPOP; HEPOP; EPOCHPOP; HYALINE1; HYALINE1S ]

(* Each scenario is (name, one-line description, cfg builder). All cells
   run sanitized so the committed JSON doubles as a safety check, and
   every disruption ends before the run does so [recovery_ns] measures
   an actual recovery rather than a truncated one. *)
let tournament_scenarios sc =
  let duration = max 1.0 sc.duration in
  let threads = List.fold_left max 2 sc.threads_list in
  let many = max 4 threads in
  let cores = Domain.recommended_domain_count () in
  let oversub = min 16 (max 8 (2 * cores)) in
  let base ?(ds = Dispatch.HML) ?(th = threads) smr =
    { (base_cfg sc ds smr th) with duration; sanitize = true }
  in
  (* Disruption cells run a hot, small structure with small batches: the
     robustness bound of the era-guarded schemes is per *batch* for the
     Hyalines (a batch is pinned iff it contains one node born before
     the freeze), so the nodes born pre-disruption must drain from the
     live set well within the run for the bounded-garbage contrast
     against EBR to be visible at simulator throughput. *)
  let hot cfg = { cfg with Runner.key_range = 512; reclaim_freq = 64 } in
  let stall polling =
    Some
      {
        Runner.stall_tid = 0;
        stall_after = 0.2 *. duration;
        stall_for = 0.5 *. duration;
        stall_polling = polling;
      }
  in
  [
    ( "stall-poll",
      Printf.sprintf
        "one of %d threads stalls mid-operation for half the run but keeps serving \
         pings (hot hml, size 512, batch 64)"
        threads,
      fun smr -> hot { (base smr) with stall = stall true } );
    ( "stall-deaf",
      "the stalled thread also goes deaf to pings, so every handshake against it \
       must time out",
      fun smr -> hot { (base smr) with stall = stall false; ping_timeout_spins = 24 } );
    ( "crash",
      Printf.sprintf
        "two of %d workers die mid-operation: reservations stay raised, retire \
         buffers are abandoned, soft-signal slots stay deaf forever"
        many,
      fun smr ->
        hot
          {
            (base ~th:many smr) with
            churn =
              Some
                {
                  Runner.exits = 0;
                  crashes = 2;
                  joins = 0;
                  churn_start = 0.2 *. duration;
                  churn_period = 0.1 *. duration;
                };
            ping_timeout_spins = 24;
          } );
    ( "churn",
      Printf.sprintf
        "%d workers; 2 exit cleanly (donating retire buffers), 2 crash, 2 fresh \
         workers join on recycled tids"
        many,
      fun smr ->
        hot
          {
            (base ~th:many smr) with
            churn =
              Some
                {
                  Runner.exits = 2;
                  crashes = 2;
                  joins = 2;
                  churn_start = 0.15 *. duration;
                  churn_period = 0.1 *. duration;
                };
            ping_timeout_spins = 24;
          } );
    ( "oversub",
      Printf.sprintf
        "%d threads on %d cores: POP reclaimers must wait for descheduled threads \
         to be scheduled and publish"
        oversub cores,
      fun smr -> base ~th:oversub smr );
    ( "kv-skew",
      Printf.sprintf
        "open-loop KV service on the hash table: zipf theta=%.2f, %.0f ops/s \
         aggregate, latency from scheduled arrival"
        sc.kv_theta sc.kv_rate,
      fun smr ->
        {
          (base ~ds:Dispatch.HMHT smr) with
          kv = true;
          kv_mix = Workload.kv_default;
          zipf_theta = sc.kv_theta;
          arrival_rate = sc.kv_rate;
        } );
  ]

let tournament_scenario_names =
  List.map (fun (n, _, _) -> n) (tournament_scenarios quick)

let fig_tournament ?(smrs = tournament_smrs) ?scenarios sc =
  let matrix = tournament_scenarios sc in
  let matrix =
    match scenarios with
    | None -> matrix
    | Some names ->
        List.iter
          (fun n ->
            if not (List.mem n tournament_scenario_names) then
              invalid_arg
                (Printf.sprintf "fig_tournament: unknown scenario %S (%s)" n
                   (String.concat "|" tournament_scenario_names)))
          names;
        List.filter (fun (n, _, _) -> List.mem n names) matrix
  in
  let acc = ref [] in
  List.iter
    (fun (name, note, mk) ->
      Report.section (Printf.sprintf "Tournament / %s: %s" name note);
      let cells = List.map (fun smr -> (smr, Runner.run (mk smr))) smrs in
      Report.table
        ~header:
          [
            "algo";
            "Mops";
            "pre-Mops";
            "recov ms";
            "rec?";
            "max garb";
            "final garb";
            "viol";
            "uaf";
            "hs t/o";
          ]
        ~rows:
          (List.map
             (fun (smr, (r : Runner.result)) ->
               [
                 Dispatch.smr_name smr ^ flag r;
                 Report.fmt_mops r.mops;
                 Report.fmt_mops r.pre_mops;
                 Printf.sprintf "%.1f" (float_of_int r.recovery_ns /. 1e6);
                 (if r.recovered then "y" else "n");
                 Report.fmt_count r.max_unreclaimed;
                 Report.fmt_count r.final_unreclaimed;
                 string_of_int r.smr.violations;
                 string_of_int r.uaf;
                 Report.fmt_count r.smr.handshake_timeouts;
               ])
             cells);
      List.iter
        (fun (smr, r) ->
          acc := (Printf.sprintf "%s/%s" name (Dispatch.smr_name smr), r) :: !acc)
        cells)
    matrix;
  List.rev !acc
