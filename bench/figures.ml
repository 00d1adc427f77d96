(* The figure registry: every figure of the paper's evaluation (scaled
   to this machine; DESIGN.md section 3), the Bechamel micro suite, the
   engine and allocator replays, the ablations and the robustness
   tournament, each under the names [popbench --fig] accepts. *)

open Pop_harness

type opts = {
  scale : Experiments.scale;
  smrs : Dispatch.smr_kind list option;
  scenarios : string list option;
}

(* A figure prints its tables; one that has a committed baseline also
   returns the document [--out] writes as BENCH_<file>.json. *)
type output = Prints of (opts -> unit) | Writes of string * (opts -> Json.t)

type t = {
  names : string list;  (** Every [--fig] name that runs it. *)
  in_all : bool;  (** Whether [--fig all] runs it. *)
  output : output;
}

(* ------------------------------------------------------------------ *)
(* Sweeps over Runner cells that print tables only                     *)
(* ------------------------------------------------------------------ *)

let ablation_reclaim_freq (sc : Experiments.scale) =
  Report.section
    "Ablation: retire-list threshold (hml, update-heavy, 2 threads) — signal overhead vs \
     memory bound";
  let freqs = [ 64; 512; 4096 ] in
  let run smr rf =
    Runner.run
      {
        Runner.default_cfg with
        ds = Dispatch.HML;
        smr;
        threads = 2;
        duration = sc.duration;
        key_range = 2048;
        reclaim_freq = rf;
      }
  in
  let cols tag = List.map (fun f -> Printf.sprintf "%s(R=%d)" tag f) freqs in
  Report.table
    ~header:("algo" :: (cols "Mops" @ cols "garb" @ cols "pings"))
    ~rows:
      (List.map
         (fun smr ->
           let rs = List.map (run smr) freqs in
           Dispatch.smr_name smr
           :: (List.map (fun (r : Runner.result) -> Report.fmt_mops r.mops) rs
              @ List.map (fun (r : Runner.result) -> Report.fmt_count r.max_unreclaimed) rs
              @ List.map (fun (r : Runner.result) -> Report.fmt_count r.smr.pings) rs))
         Dispatch.[ HPPOP; EPOCHPOP; NBR; EBR ])

let ablation_pop_mult (sc : Experiments.scale) =
  Report.section
    "Ablation: EpochPOP C multiplier (hml, update-heavy, one stalled thread) — when to \
     suspect a delay";
  let duration = max 1.0 sc.duration in
  let run m =
    Runner.run
      {
        Runner.default_cfg with
        ds = Dispatch.HML;
        smr = Dispatch.EPOCHPOP;
        threads = 3;
        duration;
        key_range = 2048;
        reclaim_freq = 128;
        pop_mult = m;
        stall =
          Some
            {
              Runner.stall_tid = 0;
              stall_after = 0.1;
              stall_for = 0.6 *. duration;
              stall_polling = true;
            };
      }
  in
  Report.table
    ~header:[ "C"; "Mops"; "max garbage"; "pop passes"; "pings" ]
    ~rows:
      (List.map
         (fun m ->
           let r = run m in
           [
             string_of_int m;
             Report.fmt_mops r.Runner.mops;
             Report.fmt_count r.Runner.max_unreclaimed;
             Report.fmt_count r.Runner.smr.pop_passes;
             Report.fmt_count r.Runner.smr.pings;
           ])
         [ 1; 2; 4; 8 ])

(* Oversubscription (paper section 4.1.2: POP's worst case is more
   threads than CPUs, yet it "performs surprisingly well"). *)
let fig_oversubscription (sc : Experiments.scale) =
  Report.section
    "Oversubscription: threads beyond the core count (hml 2048, update-heavy) - POP \
     reclaimers must wait for descheduled threads to be scheduled and publish";
  let threads_list = [ 1; 2; 4; 8; 16 ] in
  let run smr th =
    Runner.run
      {
        Runner.default_cfg with
        ds = Dispatch.HML;
        smr;
        threads = th;
        duration = sc.duration;
        key_range = 2048;
      }
  in
  Report.table
    ~header:
      ("algo"
      :: (List.map (fun t -> Printf.sprintf "Mops(t=%d)" t) threads_list
         @ [ "garb(t=16)"; "pings(t=16)" ]))
    ~rows:
      (List.map
         (fun smr ->
           let rs = List.map (run smr) threads_list in
           let last = List.nth rs (List.length rs - 1) in
           Dispatch.smr_name smr
           :: (List.map (fun (r : Runner.result) -> Report.fmt_mops r.mops) rs
              @ [
                  Report.fmt_count last.Runner.max_unreclaimed;
                  Report.fmt_count last.Runner.smr.pings;
                ]))
         Dispatch.[ EBR; NBR; HP; HPPOP; EPOCHPOP ])

(* Signal latency (paper Assumption 1 / section 4.1.2: threads publish
   in bounded time after being pinged). The scale does not apply: every
   row is 400 rounds. *)
let fig_signal_latency () =
  let module Softsignal = Pop_runtime.Softsignal in
  let module Handshake = Pop_core.Handshake in
  Report.section
    "Ping-round latency: time for one reclaimer to ping all threads and observe every \
     publish (Assumption 1). Workers poll once per simulated operation (~1 us of work)";
  let rounds = 400 in
  let measure workers =
    let total = workers + 1 in
    let hub = Softsignal.create ~max_threads:total in
    let hs = Handshake.create (Pop_core.Smr_config.default ~max_threads:total ()) hub in
    let stop = Atomic.make false in
    let ready = Atomic.make 0 in
    let worker tid () =
      let port = Softsignal.register hub ~tid in
      Softsignal.set_handler port (fun () -> Handshake.ack hs ~tid);
      let sink = ref 0 in
      Atomic.incr ready;
      while not (Atomic.get stop) do
        (* ~1 us of "traversal" between polls, the paper's read-path
           granularity of signal delivery. *)
        for i = 1 to 200 do
          sink := !sink + i
        done;
        ignore (Sys.opaque_identity !sink);
        Softsignal.poll port
      done;
      Softsignal.deregister port
    in
    let doms = List.init workers (fun tid -> Domain.spawn (worker tid)) in
    while Atomic.get ready < workers do
      Domain.cpu_relax ()
    done;
    let port = Softsignal.register hub ~tid:workers in
    let lat = Array.make rounds 0.0 in
    for i = 0 to rounds - 1 do
      let t0 = Pop_runtime.Clock.now () in
      ignore (Handshake.round hs ~port);
      lat.(i) <- Pop_runtime.Clock.elapsed t0
    done;
    Atomic.set stop true;
    List.iter Domain.join doms;
    Softsignal.deregister port;
    Array.sort Float.compare lat;
    let pct q = lat.(int_of_float (q *. float_of_int (rounds - 1))) *. 1e6 in
    (pct 0.5, pct 0.99, lat.(rounds - 1) *. 1e6)
  in
  Report.table
    ~header:[ "traversing threads"; "p50 (us)"; "p99 (us)"; "max (us)" ]
    ~rows:
      (List.map
         (fun w ->
           let p50, p99, mx = measure w in
           [
             string_of_int w;
             Printf.sprintf "%.1f" p50;
             Printf.sprintf "%.1f" p99;
             Printf.sprintf "%.1f" mx;
           ])
         [ 1; 2; 4; 8 ])

(* ------------------------------------------------------------------ *)
(* The registry                                                        *)
(* ------------------------------------------------------------------ *)

(* Runner figures label each cell ds/smr/tN. *)
let runner_cells results =
  Runner.cells_json
    (List.map
       (fun (r : Runner.result) ->
         ( Printf.sprintf "%s/%s/t%d" (Dispatch.ds_name r.r_cfg.ds)
             (Dispatch.smr_name r.r_cfg.smr) r.r_cfg.threads,
           r ))
       results)

let writes file names w = { names; in_all = true; output = Writes (file, w) }
let prints names p = { names; in_all = true; output = Prints p }
let baseline f = match f.output with Writes (file, _) -> Some file | Prints _ -> None

(* In the order [all] runs them. Figures 2, 9 and 11 are panels of the
   generator that also draws 1, 5 and 10. *)
let registry =
  [
    writes "micro" [ "micro" ] (fun _ -> Micro.fig ());
    writes "1" [ "1"; "2" ] (fun o -> runner_cells (Experiments.fig_update_heavy o.scale));
    prints [ "3" ] (fun o -> ignore (Experiments.fig_read_heavy o.scale));
    writes "4" [ "4" ] (fun o -> runner_cells (Experiments.fig_long_running_reads o.scale));
    prints [ "5"; "9" ] (fun o -> ignore (Experiments.fig_read_heavy_appendix o.scale));
    prints [ "10"; "11" ] (fun o -> ignore (Experiments.fig_crystalline o.scale));
    writes "seg" [ "seg" ] (fun o -> Replay.fig_seg o.scale);
    writes "alloc" [ "alloc" ] (fun o -> Replay.fig_alloc o.scale);
    writes "kv" [ "kv" ] (fun o -> runner_cells (Experiments.fig_kv o.scale));
    prints [ "over" ] (fun o -> fig_oversubscription o.scale);
    prints [ "latency" ] (fun _ -> fig_signal_latency ());
    prints [ "ablation" ] (fun o ->
        ablation_reclaim_freq o.scale;
        ablation_pop_mult o.scale);
    {
      names = [ "tournament" ];
      in_all = false;
      output =
        Writes
          ( "tournament",
            fun o ->
              Runner.cells_json
                (Experiments.fig_tournament ?smrs:o.smrs ?scenarios:o.scenarios o.scale) );
    };
  ]

let names = List.concat_map (fun f -> f.names) registry @ [ "all" ]

let select name =
  if name = "all" then List.filter (fun f -> f.in_all) registry
  else List.filter (fun f -> List.mem name f.names) registry

(* Run every figure [name] selects. The one writer: with [out], each
   figure that has a baseline writes OUT/BENCH_<file>.json in the
   committed baseline's shape. *)
let run ?out opts name =
  List.iter
    (fun f ->
      match f.output with
      | Prints p -> p opts
      | Writes (file, w) -> (
          let doc = w opts in
          match out with
          | None -> ()
          | Some dir ->
              let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" file) in
              Json.to_file path doc;
              Printf.printf "wrote %s\n" path))
    (select name)
