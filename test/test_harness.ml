(** Tests for the benchmark harness: dispatch, workload generation,
    reporting, the runner, and a miniature end-to-end figure sweep. *)

open Tu
open Pop_harness

let dispatch_round_trip () =
  List.iter
    (fun ds ->
      match Dispatch.ds_of_string (Dispatch.ds_name ds) with
      | Some ds' when ds' = ds -> ()
      | _ -> Alcotest.failf "ds round trip failed for %s" (Dispatch.ds_name ds))
    Dispatch.all_ds;
  List.iter
    (fun smr ->
      match Dispatch.smr_of_string (Dispatch.smr_name smr) with
      | Some smr' when smr' = smr -> ()
      | _ -> Alcotest.failf "smr round trip failed for %s" (Dispatch.smr_name smr))
    (Dispatch.UNSAFE :: Dispatch.all_smr);
  List.iter
    (fun alias ->
      Alcotest.(check bool) (alias ^ " is hyaline-1") true
        (Dispatch.smr_of_string alias = Some Dispatch.HYALINE1))
    [ "hyaline"; "crystalline" ];
  let names = List.map Dispatch.smr_name Dispatch.all_smr in
  Alcotest.(check int) "no scheme listed twice" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  Alcotest.(check (option reject)) "unknown ds" None
    (Option.map (fun _ -> ()) (Dispatch.ds_of_string "nope"));
  Alcotest.(check (option reject)) "unknown smr" None
    (Option.map (fun _ -> ()) (Dispatch.smr_of_string "nope"))

let paper_set_excludes_extras () =
  Alcotest.(check bool) "no hyaline" true (not (List.mem Dispatch.HYALINE1 Dispatch.paper_smrs));
  Alcotest.(check bool) "no unsafe" true (not (List.mem Dispatch.UNSAFE Dispatch.all_smr));
  Alcotest.(check int) "ten paper algorithms" 10 (List.length Dispatch.paper_smrs)

let workload_proportions () =
  let rng = Pop_runtime.Rng.make 11 in
  let mix = { Workload.ins_pct = 20; del_pct = 10 } in
  let ins = ref 0 and del = ref 0 and con = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    match Workload.gen rng mix ~key_range:100 with
    | Workload.Insert k | Workload.Delete k | Workload.Contains k ->
        if k < 0 || k >= 100 then Alcotest.failf "key out of range: %d" k
  done;
  for _ = 1 to n do
    match Workload.gen rng mix ~key_range:100 with
    | Workload.Insert _ -> incr ins
    | Workload.Delete _ -> incr del
    | Workload.Contains _ -> incr con
  done;
  let pct x = 100 * x / n in
  Alcotest.(check bool) "inserts ~20%" true (abs (pct !ins - 20) <= 3);
  Alcotest.(check bool) "deletes ~10%" true (abs (pct !del - 10) <= 3);
  Alcotest.(check bool) "contains ~70%" true (abs (pct !con - 70) <= 3)

let workload_validation () =
  Workload.validate Workload.update_heavy;
  Workload.validate Workload.read_heavy;
  Workload.validate Workload.read_only;
  Alcotest.check_raises "overfull mix"
    (Invalid_argument
       "Workload.mix: percentages must be non-negative and sum to at most 100") (fun () ->
      Workload.validate { Workload.ins_pct = 60; del_pct = 41 })

let prefill_is_half () =
  let keys = Workload.prefill_keys ~key_range:100 in
  Alcotest.(check int) "half the range" 50 (List.length keys);
  List.iter (fun k -> if k mod 2 <> 0 || k < 0 || k >= 100 then Alcotest.failf "bad key %d" k) keys;
  Alcotest.(check (list int)) "even keys (shuffled)" (List.init 50 (fun i -> 2 * i))
    (List.sort Int.compare keys);
  Alcotest.(check bool) "not in ascending order (no degenerate BSTs)" true
    (keys <> List.sort Int.compare keys);
  let keys_odd = Workload.prefill_keys ~key_range:7 in
  Alcotest.(check (list int)) "odd range" [ 0; 2; 4; 6 ] (List.sort Int.compare keys_odd)

(* --- Zipfian generator --- *)

(* Rank-frequency slope against the law: log(count) vs log(rank+1)
   fitted over the head (100 ranks with thousands of hits each) must
   have slope ~ -theta. Checked at two thetas so a generator that
   ignores theta (or returns uniform, slope ~ 0) cannot pass. A slope
   fit is robust to the Gray et al. inverse-CDF discretization, which
   perturbs individual small-rank probabilities by >10% but not the
   power law itself (measured slopes: -1.015 and -0.509). *)
let zipf_matches_law () =
  let n = 1000 in
  let draws = 200_000 in
  List.iter
    (fun theta ->
      let z = Workload.zipf ~n ~theta in
      let rng = Pop_runtime.Rng.make 17 in
      let counts = Array.make n 0 in
      for _ = 1 to draws do
        let r = Workload.zipf_draw z rng in
        if r < 0 || r >= n then Alcotest.failf "rank %d out of [0,%d)" r n;
        counts.(r) <- counts.(r) + 1
      done;
      let pts = ref [] in
      for r = 0 to 99 do
        if counts.(r) > 0 then
          pts := (log (float_of_int (r + 1)), log (float_of_int counts.(r))) :: !pts
      done;
      let l = !pts in
      let m = float_of_int (List.length l) in
      let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 l in
      let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 l in
      let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 l in
      let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 l in
      let slope = ((m *. sxy) -. (sx *. sy)) /. ((m *. sxx) -. (sx *. sx)) in
      if Float.abs (slope +. theta) > 0.06 then
        Alcotest.failf "theta=%.2f: rank-frequency slope %.4f, want ~%.2f" theta slope
          (-.theta);
      (* Monotone head: rank 0 strictly dominates rank 9. *)
      if counts.(0) <= counts.(9) then
        Alcotest.failf "theta=%.2f: rank 0 (%d) not more popular than rank 9 (%d)" theta
          counts.(0) counts.(9))
    [ 0.99; 0.5 ]

let zipf_deterministic () =
  let z = Workload.zipf ~n:500 ~theta:0.99 in
  let draw_seq () =
    let rng = Pop_runtime.Rng.make 23 in
    List.init 200 (fun _ -> Workload.zipf_draw z rng)
  in
  Alcotest.(check (list int)) "same seed, same ranks" (draw_seq ()) (draw_seq ());
  Alcotest.check_raises "theta out of range"
    (Invalid_argument "Workload.zipf: theta must lie in (0, 1)") (fun () ->
      ignore (Workload.zipf ~n:10 ~theta:1.0))

let kv_mix_proportions () =
  let rng = Pop_runtime.Rng.make 29 in
  let kg = Workload.keygen ~key_range:100 ~theta:0.99 in
  let n = 20_000 in
  let get = ref 0 and set = ref 0 and cas = ref 0 and rem = ref 0 in
  for _ = 1 to n do
    match Workload.gen_kv rng Workload.kv_default kg ~key_range:100 with
    | Workload.Get k -> if k < 0 || k >= 100 then Alcotest.failf "key %d" k else incr get
    | Workload.Set _ -> incr set
    | Workload.Cas _ -> incr cas
    | Workload.Remove _ -> incr rem
  done;
  let pct x = 100 * x / n in
  Alcotest.(check bool) "gets ~90%" true (abs (pct !get - 90) <= 3);
  Alcotest.(check bool) "sets ~6%" true (abs (pct !set - 6) <= 3);
  Alcotest.(check bool) "cas+remove ~4%" true (abs (pct (!cas + !rem) - 4) <= 3);
  Alcotest.check_raises "overfull kv mix"
    (Invalid_argument "Workload.kv_mix: percentages must be non-negative and sum to at most 100")
    (fun () -> Workload.validate_kv { Workload.get_pct = 90; set_pct = 9; cas_pct = 2 })

let exp_interval_sane () =
  let rng = Pop_runtime.Rng.make 31 in
  let rate = 1000.0 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let d = Workload.exp_interval rng ~rate in
    if (not (Float.is_finite d)) || d < 0.0 then Alcotest.failf "bad interval %g" d;
    sum := !sum +. d
  done;
  let mean = !sum /. float_of_int n in
  (* Exp(rate) has mean 1/rate; 5% tolerance at 50k samples. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean %.6f ~ 0.001" mean)
    true
    (Float.abs (mean -. 0.001) < 0.00005)

let report_formatting () =
  Alcotest.(check string) "mops" "1.234" (Report.fmt_mops 1.2341);
  Alcotest.(check string) "small count" "9999" (Report.fmt_count 9999);
  Alcotest.(check string) "kilo" "123.5K" (Report.fmt_count 123456);
  Alcotest.(check string) "mega" "12.3M" (Report.fmt_count 12345678)

let runner_sane_metrics () =
  let r =
    Runner.run
      {
        Runner.default_cfg with
        threads = 2;
        duration = 0.2;
        key_range = 128;
        reclaim_freq = 16;
      }
  in
  Alcotest.(check bool) "ops happened" true (r.Runner.total_ops > 100);
  Alcotest.(check bool) "mops positive" true (r.Runner.mops > 0.0);
  Alcotest.(check bool) "updates counted" true (r.Runner.update_ops > 0);
  Alcotest.(check bool) "peak >= final garbage" true
    (r.Runner.max_unreclaimed >= r.Runner.final_unreclaimed);
  Alcotest.(check bool) "peak live >= final size" true
    (r.Runner.max_live >= r.Runner.final_size);
  Alcotest.(check bool) "consistent" true (Runner.consistent r)

let runner_single_thread () =
  let r = Runner.run { Runner.default_cfg with threads = 1; duration = 0.1; key_range = 64 } in
  Alcotest.(check bool) "single-thread consistent" true (Runner.consistent r)

let runner_long_running_reads_roles () =
  let r =
    Runner.run
      {
        Runner.default_cfg with
        threads = 2;
        duration = 0.2;
        key_range = 512;
        long_running_reads = true;
        near_head_span = 16;
      }
  in
  Alcotest.(check bool) "reads from reader role" true (r.Runner.read_ops > 0);
  Alcotest.(check bool) "updates from updater role" true (r.Runner.update_ops > 0);
  Alcotest.(check bool) "consistent" true (Runner.consistent r)

let runner_lrr_reuses_snapshots () =
  (* Long-running reads are the snapshot cache's best case: the reader's
     reservations barely move, so triggered passes must be answered from
     the cached sealed snapshot instead of fresh O(T*H) collects. The
     figure tables surface this counter; here a tier-1 cell pins it
     nonzero. *)
  let r =
    Runner.run
      {
        Runner.default_cfg with
        smr = Dispatch.HPPOP;
        threads = 2;
        duration = 0.3;
        key_range = 512;
        reclaim_freq = 16;
        long_running_reads = true;
        near_head_span = 16;
      }
  in
  Alcotest.(check bool) "consistent" true (Runner.consistent r);
  Alcotest.(check bool)
    (Printf.sprintf "snapshot reuses nonzero (%d)" r.Runner.smr.Pop_core.Smr_stats.snapshot_reuses)
    true
    (r.Runner.smr.Pop_core.Smr_stats.snapshot_reuses > 0)

let runner_cadence_reuses_snapshots () =
  (* Cadence's cache is tick-stamped: [maybe_tick] invalidates exactly
     when the tick advances, so triggered passes between ticks must be
     answered from the cached snapshot (PR 5 removed the force that made
     every cadence pass a fresh collect). A tier-1 cell pins the reuse
     counter nonzero so the scheme cannot silently regress to per-pass
     O(T*H) collects. *)
  let r =
    Runner.run
      {
        Runner.default_cfg with
        smr = Dispatch.CADENCE;
        threads = 2;
        duration = 0.3;
        key_range = 512;
        reclaim_freq = 16;
      }
  in
  Alcotest.(check bool) "consistent" true (Runner.consistent r);
  Alcotest.(check bool)
    (Printf.sprintf "snapshot reuses nonzero (%d)" r.Runner.smr.Pop_core.Smr_stats.snapshot_reuses)
    true
    (r.Runner.smr.Pop_core.Smr_stats.snapshot_reuses > 0)

let runner_rejects_nonsense () =
  Alcotest.check_raises "zero threads" (Invalid_argument "Runner.run: need at least one thread")
    (fun () -> ignore (Runner.run { Runner.default_cfg with threads = 0 }));
  Alcotest.check_raises "negative churn counts"
    (Invalid_argument "Runner.run: churn event counts must be non-negative") (fun () ->
      ignore
        (Runner.run
           {
             Runner.default_cfg with
             churn =
               Some
                 {
                   Runner.exits = -1;
                   crashes = 0;
                   joins = 0;
                   churn_start = 0.1;
                   churn_period = 0.1;
                 };
           }));
  Alcotest.check_raises "joins without exits"
    (Invalid_argument "Runner.run: churn joins need cleanly released tids (joins <= exits)")
    (fun () ->
      ignore
        (Runner.run
           {
             Runner.default_cfg with
             churn =
               Some
                 {
                   Runner.exits = 0;
                   crashes = 0;
                   joins = 1;
                   churn_start = 0.1;
                   churn_period = 0.1;
                 };
           }))

let runner_kv_open_loop () =
  (* End-to-end KV cell, sanitized: Zipfian keys, open-loop arrivals,
     latency percentiles populated and ordered, zero violations. *)
  let r =
    Runner.run
      {
        Runner.default_cfg with
        ds = Dispatch.HMHT;
        smr = Dispatch.HPPOP;
        threads = 2;
        duration = 0.3;
        key_range = 1024;
        reclaim_freq = 64;
        kv = true;
        zipf_theta = 0.99;
        arrival_rate = 10_000.0;
        sanitize = true;
      }
  in
  let module H = Pop_runtime.Histogram in
  Alcotest.(check bool) "ops happened" true (r.Runner.total_ops > 100);
  Alcotest.(check int) "every op recorded a latency" r.Runner.total_ops
    (H.count r.Runner.latency);
  Alcotest.(check bool) "reads and updates both seen" true
    (r.Runner.read_ops > 0 && r.Runner.update_ops > 0);
  let p50 = H.quantile r.Runner.latency 0.50 in
  let p99 = H.quantile r.Runner.latency 0.99 in
  let p999 = H.quantile r.Runner.latency 0.999 in
  let mx = H.max_value r.Runner.latency in
  Alcotest.(check bool)
    (Printf.sprintf "percentiles ordered (%d <= %d <= %d <= %d)" p50 p99 p999 mx)
    true
    (0 < p50 && p50 <= p99 && p99 <= p999 && p999 <= mx);
  Alcotest.(check bool) "consistent" true (Runner.consistent r);
  Alcotest.(check int) "no sanitizer violations" 0 r.Runner.smr.Pop_core.Smr_stats.violations;
  Alcotest.(check int) "no uaf" 0 r.Runner.uaf

let runner_kv_closed_loop_deterministic_counts () =
  (* Closed-loop KV on the skip list: latency is bare service time and
     the cas/get/set plumbing keeps the size ledger consistent. *)
  let r =
    Runner.run
      {
        Runner.default_cfg with
        ds = Dispatch.SL;
        smr = Dispatch.EPOCHPOP;
        threads = 2;
        duration = 0.2;
        key_range = 512;
        reclaim_freq = 64;
        kv = true;
        zipf_theta = 0.8;
      }
  in
  let module H = Pop_runtime.Histogram in
  Alcotest.(check int) "every op recorded a latency" r.Runner.total_ops
    (H.count r.Runner.latency);
  Alcotest.(check bool) "consistent (cas net accounting)" true (Runner.consistent r)

let runner_kv_records_pause () =
  (* An update-heavy KV cell must run reclamation passes, and the pass
     timer must record a nonzero max pause. *)
  let r =
    Runner.run
      {
        Runner.default_cfg with
        ds = Dispatch.HMHT;
        smr = Dispatch.EBR;
        threads = 2;
        duration = 0.2;
        key_range = 512;
        reclaim_freq = 32;
        kv = true;
        kv_mix = { Workload.get_pct = 20; set_pct = 40; cas_pct = 20 };
      }
  in
  let passes =
    r.Runner.smr.Pop_core.Smr_stats.reclaim_passes + r.Runner.smr.Pop_core.Smr_stats.pop_passes
  in
  Alcotest.(check bool) "passes ran" true (passes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "max pause recorded (%d ns)" r.Runner.smr.Pop_core.Smr_stats.max_pause_ns)
    true
    (r.Runner.smr.Pop_core.Smr_stats.max_pause_ns > 0)

let experiments_micro_sweep () =
  (* A miniature figure sweep end-to-end: exercises fig_mixed and the
     result plumbing without benchmark-scale runtimes. *)
  let sc =
    {
      Experiments.quick with
      Experiments.duration = 0.1;
      threads_list = [ 1; 2 ];
      size_hml = 128;
      reclaim_freq = 16;
    }
  in
  let rs =
    Experiments.fig_mixed ~title:"micro" ~mix:Workload.update_heavy ~dss:[ Dispatch.HML ]
      ~smrs:[ Dispatch.EBR; Dispatch.EPOCHPOP ] sc
  in
  Alcotest.(check int) "2 algos x 2 thread counts" 4 (List.length rs);
  List.iter
    (fun r ->
      if not (Runner.consistent r) then Alcotest.fail "micro sweep cell inconsistent")
    rs

let experiments_sizes () =
  let sc = Experiments.quick in
  List.iter
    (fun ds ->
      Alcotest.(check bool)
        (Dispatch.ds_name ds ^ " sized")
        true
        (Experiments.size_of sc ds > 0))
    Dispatch.all_ds

(* The figure registry behind [popbench --fig]. *)
module Figures = Pop_bench.Figures

let registry_names_unique () =
  let names = Figures.names in
  Alcotest.(check int) "no figure name listed twice" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let registry_resolves_every_name () =
  List.iter
    (fun name ->
      if Figures.select name = [] then Alcotest.failf "--fig %s runs nothing" name)
    [ "micro"; "1"; "2"; "3"; "4"; "5"; "9"; "10"; "11"; "over"; "latency"; "seg"; "alloc";
      "kv"; "ablation"; "all"; "tournament" ];
  Alcotest.(check bool) "all leaves the tournament out" false
    (List.exists (fun f -> List.mem "tournament" f.Figures.names) (Figures.select "all"));
  Alcotest.(check int) "an unknown name runs nothing" 0 (List.length (Figures.select "bogus"))

(* A misspelt tournament scenario is an error before any cell runs, not
   an empty matrix that exits 0 and writes []. *)
let tournament_rejects_unknown_scenario () =
  Alcotest.(check (list string))
    "the six scenarios" [ "stall-poll"; "stall-deaf"; "crash"; "churn"; "oversub"; "kv-skew" ]
    Experiments.tournament_scenario_names;
  Alcotest.check_raises "unknown name rejected"
    (Invalid_argument
       "fig_tournament: unknown scenario \"stal-poll\" \
        (stall-poll|stall-deaf|crash|churn|oversub|kv-skew)")
    (fun () ->
      ignore
        (Experiments.fig_tournament ~smrs:[] ~scenarios:[ "crash"; "stal-poll" ]
           Experiments.quick))

(* Every figure that writes a baseline writes a committed one, and every
   committed baseline has a figure that rewrites it. *)
let registry_baselines_committed () =
  let written =
    List.filter_map Figures.baseline Figures.registry
    |> List.map (Printf.sprintf "BENCH_%s.json")
    |> List.sort String.compare
  in
  Alcotest.(check (list string))
    "baselines written = baselines committed" (committed_baselines ()) written

let suite =
  [
    case "dispatch: name round trips" dispatch_round_trip;
    case "dispatch: algorithm sets" paper_set_excludes_extras;
    case "workload: proportions and key bounds" workload_proportions;
    case "workload: mix validation" workload_validation;
    case "workload: prefill covers half the range" prefill_is_half;
    case "workload: zipf matches the law at two thetas" zipf_matches_law;
    case "workload: zipf deterministic under fixed seed" zipf_deterministic;
    case "workload: kv mix proportions" kv_mix_proportions;
    case "workload: exponential inter-arrivals" exp_interval_sane;
    case "report: number formatting" report_formatting;
    case "runner: metrics are sane" runner_sane_metrics;
    case "runner: single thread" runner_single_thread;
    case "runner: long-running-reads roles" runner_long_running_reads_roles;
    case "runner: long-running reads reuse snapshots" runner_lrr_reuses_snapshots;
    case "runner: cadence reuses tick-stamped snapshots" runner_cadence_reuses_snapshots;
    case "runner: rejects bad config" runner_rejects_nonsense;
    case "runner: kv open-loop latency end-to-end" runner_kv_open_loop;
    case "runner: kv closed loop on the skip list" runner_kv_closed_loop_deterministic_counts;
    case "runner: kv records reclamation pauses" runner_kv_records_pause;
    case "experiments: micro sweep end-to-end" experiments_micro_sweep;
    case "experiments: scales define sizes" experiments_sizes;
    case "figures: registry names are unique" registry_names_unique;
    case "figures: every former --fig name and the tournament resolve"
      registry_resolves_every_name;
    case "figures: each baseline a figure writes is committed" registry_baselines_committed;
    case "experiments: tournament rejects an unknown scenario"
      tournament_rejects_unknown_scenario;
  ]
