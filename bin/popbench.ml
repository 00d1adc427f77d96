(* popbench: run one benchmark cell (any data structure x any SMR) and
   print its full result, or run one figure of the registry
   ([--fig NAME]; Pop_bench.Figures). *)

open Cmdliner
open Pop_harness

let ds_conv =
  let parse s =
    match Dispatch.ds_of_string s with
    | Some d -> Ok d
    | None ->
        Error (`Msg (Printf.sprintf "unknown data structure %S (hml|ll|hmht|dgt|abt|sl)" s))
  in
  Arg.conv (parse, fun fmt d -> Format.pp_print_string fmt (Dispatch.ds_name d))

let smr_conv =
  let parse s =
    match Dispatch.smr_of_string s with
    | Some a -> Ok a
    | None ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown SMR %S \
                 (nr|hp|hp-asym|he|ebr|ibr|nbr|hp-pop|he-pop|epoch-pop|hyaline-1|hyaline-1s|cadence)"
                s))
  in
  Arg.conv (parse, fun fmt a -> Format.pp_print_string fmt (Dispatch.smr_name a))

let quantile_us (r : Runner.result) q =
  float_of_int (Pop_runtime.Histogram.quantile r.latency q) /. 1e3

let max_lat_us (r : Runner.result) =
  float_of_int (Pop_runtime.Histogram.max_value r.latency) /. 1e3

let print_result (r : Runner.result) =
  Report.section
    (Printf.sprintf "%s / %s : %d threads, %.2fs, key range %d"
       (Dispatch.ds_name r.r_cfg.ds) (Dispatch.smr_name r.r_cfg.smr) r.r_cfg.threads
       r.r_cfg.duration r.r_cfg.key_range);
  Report.table
    ~header:[ "metric"; "value" ]
    ~rows:
      ([
         [ "throughput (Mops/s)"; Report.fmt_mops r.mops ];
         [ "read throughput (Mops/s)"; Report.fmt_mops r.read_mops ];
         [ "total ops"; string_of_int r.total_ops ];
         [ "max unreclaimed (garbage)"; string_of_int r.max_unreclaimed ];
         [ "final unreclaimed"; string_of_int r.final_unreclaimed ];
         [ "max live nodes"; string_of_int r.max_live ];
         [ "final live nodes"; string_of_int r.final_live ];
         [ "use-after-free detected"; string_of_int r.uaf ];
         [ "double frees detected"; string_of_int r.double_free ];
         [ "final size"; string_of_int r.final_size ];
         [ "expected size"; string_of_int r.expected_size ];
         [ "invariants"; (if r.invariants_ok then "ok" else "VIOLATED: " ^ r.invariant_error) ];
         [ "exited / crashed / joined"; Printf.sprintf "%d / %d / %d" r.exited r.crashed r.joined ];
       ]
      @ (if Pop_runtime.Histogram.count r.latency = 0 then []
         else
           [
             [ "latency p50 (us)"; Printf.sprintf "%.1f" (quantile_us r 0.50) ];
             [ "latency p99 (us)"; Printf.sprintf "%.1f" (quantile_us r 0.99) ];
             [ "latency p999 (us)"; Printf.sprintf "%.1f" (quantile_us r 0.999) ];
             [ "latency max (us)"; Printf.sprintf "%.1f" (max_lat_us r) ];
             [
               "max reclaim pause (us)";
               Printf.sprintf "%.1f" (float_of_int r.smr.Pop_core.Smr_stats.max_pause_ns /. 1e3);
             ];
           ])
      @ List.map
          (fun (k, v) -> [ k; string_of_int v ])
          (Pop_core.Smr_stats.to_alist r.smr));
  if not (Runner.consistent r) then prerr_endline "warning: cell inconsistent (see table)"

(* The load-shape flags name one [Workload.load]; a pair that no single
   load can hold is a usage error rather than a silently dropped flag. *)
let load_of_flags ~ins ~del ~lrr ~kv ~zipf ~rate =
  match (kv, lrr, zipf, rate) with
  | true, true, _, _ -> Error "--kv and --long-running-reads are two loads; pick one"
  | false, _, Some _, _ | false, _, _, Some _ -> Error "--zipf and --rate apply only with --kv"
  | _ when (kv || lrr) && (ins <> None || del <> None) ->
      Error "--inserts and --deletes apply only to the default mixed load"
  | true, false, zipf, rate ->
      let value = Option.value ~default:0.0 in
      Ok (Workload.Kv { zipf_theta = value zipf; arrival_rate = value rate })
  | false, true, None, None -> Ok Workload.Long_running_reads
  | false, false, None, None ->
      let pct = Option.value ~default:50 in
      Ok (Workload.Mix { ins_pct = pct ins; del_pct = pct del })

let run_cell ds smr threads duration key_range load reclaim_freq epoch_freq pop_mult stall_for
    stall_polling churn_counts churn_start churn_period ping_timeout suspect_after segment_size
    drop_ping delay_poll seed sanitize json =
  let stall =
    if stall_for > 0.0 then
      Some
        {
          Runner.stall_tid = 0;
          stall_after = 0.1 *. duration;
          stall_for;
          stall_polling;
        }
    else None
  in
  let churn =
    match churn_counts with
    | None -> None
    | Some (exits, crashes, joins) ->
        Some
          {
            Runner.exits;
            crashes;
            joins;
            churn_start = churn_start *. duration;
            churn_period = churn_period *. duration;
          }
  in
  let cfg =
    {
      Runner.ds;
      smr;
      threads;
      duration;
      key_range;
      load;
      reclaim_freq;
      epoch_freq;
      pop_mult;
      stall;
      churn;
      ping_timeout_spins = ping_timeout;
      suspect_after;
      segment_size;
      drop_ping;
      delay_poll;
      seed;
      sanitize;
    }
  in
  let r = Runner.run cfg in
  print_result r;
  match json with
  | None -> ()
  | Some file ->
      Json.to_file file (Pop_bench.Figures.runner_cells [ r ]);
      Printf.printf "wrote %s\n" file

let cmd =
  let d = Runner.default_cfg in
  let ds = Arg.(value & opt ds_conv Dispatch.HML & info [ "ds" ] ~doc:"Data structure.") in
  let smr = Arg.(value & opt smr_conv Dispatch.EPOCHPOP & info [ "smr" ] ~doc:"SMR algorithm.") in
  let threads = Arg.(value & opt int 2 & info [ "threads"; "t" ] ~doc:"Worker threads.") in
  let duration = Arg.(value & opt float 1.0 & info [ "duration"; "d" ] ~doc:"Seconds.") in
  let key_range = Arg.(value & opt int 2048 & info [ "size"; "s" ] ~doc:"Key range.") in
  let ins = Arg.(value & opt (some int) None & info [ "inserts" ] ~doc:"Insert percentage.") in
  let del = Arg.(value & opt (some int) None & info [ "deletes" ] ~doc:"Delete percentage.") in
  let reclaim =
    Arg.(value & opt int d.reclaim_freq & info [ "reclaim-freq" ] ~doc:"Retire threshold.")
  in
  let epochf = Arg.(value & opt int d.epoch_freq & info [ "epoch-freq" ] ~doc:"Epoch frequency.") in
  let popm = Arg.(value & opt int d.pop_mult & info [ "pop-mult" ] ~doc:"EpochPOP C multiplier.") in
  let lrr =
    Arg.(value & flag & info [ "long-running-reads" ] ~doc:"Figure-4 reader/updater split.")
  in
  let kv =
    Arg.(
      value & flag
      & info [ "kv" ]
          ~doc:
            "KV-service mode: a memcached-style get/set/cas/delete mix (90/6/2/2) with \
             per-operation latency percentiles; combine with --zipf and --rate.")
  in
  let zipf =
    Arg.(
      value
      & opt (some float) None
      & info [ "zipf" ] ~docv:"THETA"
          ~doc:
            "Zipfian key-popularity skew for --kv (0.99 = YCSB default); 0 keeps keys \
             uniform.")
  in
  let rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"OPS"
          ~doc:
            "Open-loop aggregate arrival rate in ops/second for --kv: operations arrive on \
             a seeded Poisson schedule and latency includes queueing delay behind it. 0 runs \
             closed-loop (latency = bare service time).")
  in
  let stall_for =
    Arg.(value & opt float 0.0 & info [ "stall" ] ~doc:"Stall thread 0 for this many seconds.")
  in
  let stall_polling =
    Arg.(value & opt bool true & info [ "stall-polling" ] ~doc:"Stalled thread serves pings.")
  in
  let churn_counts =
    Arg.(
      value
      & opt (some (t3 ~sep:',' int int int)) None
      & info [ "churn" ] ~docv:"EXITS,CRASHES,JOINS"
          ~doc:
            "Thread-churn schedule: this many clean exits, mid-operation crashes and fresh \
             joins, shuffled deterministically from --seed and fired one per --churn-period.")
  in
  let churn_start =
    Arg.(
      value & opt float 0.15
      & info [ "churn-start" ]
          ~doc:"First churn event, as a fraction of the run duration.")
  in
  let churn_period =
    Arg.(
      value & opt float 0.1
      & info [ "churn-period" ]
          ~doc:"Time between churn events, as a fraction of the run duration.")
  in
  let ping_timeout =
    Arg.(
      value & opt int d.ping_timeout_spins
      & info [ "ping-timeout" ]
          ~doc:"Handshake spin budget per non-responsive peer (backoff attempts).")
  in
  let suspect_after =
    Arg.(
      value & opt int d.suspect_after
      & info [ "suspect-after" ]
          ~doc:
            "Consecutive stale-heartbeat handshake timeouts before the failure detector \
             quarantines a peer (raise on oversubscribed schedulers).")
  in
  let segment_size =
    Arg.(
      value & opt int d.segment_size
      & info [ "segment-size" ] ~doc:"Retire-buffer segment-block capacity (nodes per block).")
  in
  let drop_ping =
    Arg.(
      value & opt float 0.0
      & info [ "drop-ping" ] ~doc:"Probability a soft signal is lost in flight (fault injection).")
  in
  let delay_poll =
    Arg.(
      value & opt float 0.0
      & info [ "delay-poll" ] ~doc:"Probability a poll defers a pending ping (fault injection).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let sanitize =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:
            "Wrap the scheme in the SmrSan protocol sanitizer; violations are counted in the \
             'violations' stat.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the cell result as JSON to $(docv).")
  in
  let fig =
    Arg.(
      value
      & opt (some (enum (List.map (fun n -> (n, n)) Pop_bench.Figures.names))) None
      & info [ "fig" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Run a figure of the paper's evaluation instead of a single cell: %s. 'all' \
                runs every figure but the tournament; the cell options do not apply."
               (String.concat ", " Pop_bench.Figures.names)))
  in
  let out =
    Arg.(
      value
      & opt (some dir) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "With --fig, write each figure that has a committed baseline to \
             $(docv)/BENCH_<name>.json.")
  in
  let tournament_smrs =
    Arg.(
      value
      & opt (some (list smr_conv)) None
      & info [ "smrs" ] ~docv:"SMR,..."
          ~doc:
            "With --fig tournament, restrict the roster to these schemes (default: full \
             roster).")
  in
  let tournament_scenarios =
    let names = Experiments.tournament_scenario_names in
    Arg.(
      value
      & opt (some (list (enum (List.map (fun n -> (n, n)) names)))) None
      & info [ "scenarios" ] ~docv:"NAME,..."
          ~doc:
            (Printf.sprintf
               "With --fig tournament, restrict the matrix to these scenarios (%s; default: \
                all of them)."
               (String.concat "|" names)))
  in
  let fullscale =
    Arg.(value & flag & info [ "full" ] ~doc:"With --fig, longer runs on larger structures.")
  in
  let main ds smr threads duration key_range ins del reclaim epochf popm lrr kv zipf rate
      stall_for stall_polling churn_counts churn_start churn_period ping_timeout suspect_after
      segment_size drop_ping delay_poll seed sanitize json fig out smrs scenarios fullscale
      =
    match fig with
    | Some name ->
        let scale = if fullscale then Experiments.full else Experiments.quick in
        `Ok (Pop_bench.Figures.run ?out { scale; smrs; scenarios } name)
    | None -> (
        match load_of_flags ~ins ~del ~lrr ~kv ~zipf ~rate with
        | Error msg -> `Error (true, msg)
        | Ok load ->
            `Ok
              (run_cell ds smr threads duration key_range load reclaim epochf popm stall_for
                 stall_polling churn_counts churn_start churn_period ping_timeout suspect_after
                 segment_size drop_ping delay_poll seed sanitize json))
  in
  Cmd.v
    (Cmd.info "popbench" ~doc:"Publish-on-ping reclamation benchmark")
    Term.(
      ret
        (const main $ ds $ smr $ threads $ duration $ key_range $ ins $ del $ reclaim $ epochf
       $ popm $ lrr $ kv $ zipf $ rate $ stall_for $ stall_polling $ churn_counts $ churn_start
       $ churn_period $ ping_timeout $ suspect_after $ segment_size $ drop_ping $ delay_poll
       $ seed $ sanitize $ json $ fig $ out $ tournament_smrs $ tournament_scenarios
       $ fullscale))

let () = exit (Cmd.eval cmd)
