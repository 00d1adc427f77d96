(* Long-running reads (paper Figure 4, section 5.1.2): an analytics
   thread repeatedly scans a large sorted list while writers churn keys
   near the head, forcing frequent reclamation. Under NBR every
   reclamation round neutralizes the scanner — its traversal restarts
   from the entry point and may never finish. Publish-on-ping readers
   just publish their reservations when pinged and keep going.

   Run with: dune exec examples/long_running_scan.exe *)

open Pop_harness

let run smr =
  Runner.run
    {
      Runner.default_cfg with
      ds = Dispatch.HML;
      smr;
      threads = 4;
      duration = 1.0;
      key_range = 16384;
      reclaim_freq = 16 (* tiny retire threshold: reclamation storms *);
      load = Workload.Long_running_reads (* 2 full-range readers + 2 head updaters *);
    }

let () =
  print_endline "long-running reads: 2 scanners over 16K keys, 2 updaters at the head,";
  print_endline "retire threshold 16 (a reclamation storm)\n";
  let nr = run Dispatch.NR in
  let rows =
    List.map
      (fun smr ->
        let r = run smr in
        [
          Dispatch.smr_name smr;
          Report.fmt_mops r.Runner.read_mops;
          Printf.sprintf "%.2f" (r.Runner.read_mops /. nr.Runner.read_mops);
          Report.fmt_count r.Runner.smr.Pop_core.Smr_stats.restarts;
          Report.fmt_count r.Runner.smr.Pop_core.Smr_stats.pings;
          Report.fmt_count r.Runner.max_unreclaimed;
        ])
      Dispatch.[ NBR; HPPOP; EPOCHPOP; EBR ]
  in
  Report.table
    ~header:[ "algo"; "read Mops"; "ratio vs nr"; "forced restarts"; "pings"; "max garbage" ]
    ~rows:
      ([ Dispatch.smr_name Dispatch.NR; Report.fmt_mops nr.Runner.read_mops; "1.00"; "0"; "0";
         Report.fmt_count nr.Runner.max_unreclaimed ]
      :: rows);
  print_endline
    "\nNBR's scanners lose completed reads to forced restarts; the POP scanners absorb\n\
     the same reclamation storm through reservation publishes (pings) instead."
