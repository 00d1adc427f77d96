open Pop_harness
module Smr_config = Pop_core.Smr_config
module Smr_stats = Pop_core.Smr_stats
module Softsignal = Pop_runtime.Softsignal
module Rng = Pop_runtime.Rng

type workload = {
  name : string;
  ds : Dispatch.ds_kind;
  key_range : int;
  mix : Workload.mix;
  stall : bool;
  reps : int;
}

let workloads =
  [
    {
      name = "read-mostly";
      ds = Dispatch.HML;
      key_range = 256;
      mix = Workload.read_heavy;
      stall = false;
      (* A read-mostly cell runs at one of two speeds (see README.md),
         drawn anew for each cell; many short cells average the mix. *)
      reps = 100;
    };
    {
      name = "update-heavy";
      ds = Dispatch.HMHT;
      key_range = 65536;
      mix = Workload.update_heavy;
      stall = false;
      reps = 20;
    };
    {
      name = "stalled-reader";
      ds = Dispatch.HMHT;
      key_range = 65536;
      mix = Workload.update_heavy;
      stall = true;
      reps = 20;
    };
  ]

let find_workload name = List.find_opt (fun w -> String.equal w.name name) workloads

let schemes = [ Dispatch.HPPOP; Dispatch.HEPOP; Dispatch.EPOCHPOP ]

(* Two workers: the handshake needs a peer. The main domain only
   spawns, joins and checks. *)
let workers = 2

let stream_len = 1 lsl 20

let span_budget = 200_000

(* The stalled worker stalls this far into its cell's window and stays
   stalled, serving pings, until the window closes. *)
let stall_at = 0.1

(* {1 Inputs} *)

type inputs = { streams : int array array; prefill : int list; digest : string }

let encode = function
  | Workload.Contains k -> k lsl 2
  | Workload.Insert k -> (k lsl 2) lor 1
  | Workload.Delete k -> (k lsl 2) lor 2

let inputs w ~seed =
  let master = Rng.make seed in
  let streams =
    Array.init workers (fun _ ->
        let rng = Rng.split master in
        Array.init stream_len (fun _ -> encode (Workload.gen rng w.mix ~key_range:w.key_range)))
  in
  let prefill = Workload.prefill_keys ~key_range:w.key_range in
  { streams; prefill; digest = Digest.to_hex (Digest.string (Marshal.to_string (streams, prefill) [])) }

(* {1 One cell: one structure, one scheme, one timed window} *)

type worker_out = {
  w_ops : int;
  w_start : float;
  w_end : float;
  w_lat : Hist.t;
  w_tried : int;
  w_ok : int;
  w_delta : int array;
  w_polls : int;
  w_minor_words : float;
}

type cell = {
  scheme : Dispatch.smr_kind;
  traced : bool;
  setup_s : float;
  ops : int;
  window_s : float;
  lat : Hist.t;
  peak_garbage : int;
  failure : string option;
  tried : int;
  succeeded : int;
  polls : int;
  minor_words : float;
  stats0 : Smr_stats.t;
  stats1 : Smr_stats.t;
  handler_runs : int;
  minor_gcs : int;
  major_gcs : int;
  locals : Trace.local array;
}

let set_module ~traced ds scheme : (module Pop_ds.Set_intf.SET) =
  if not traced then Dispatch.set_module ds scheme
  else begin
    let (module Raw) = Dispatch.smr_module scheme in
    let module T = Pop_core.Smr_typed.Of (Timed.Make (Raw)) in
    match ds with
    | Dispatch.HML -> (module Pop_ds.Hm_list.Make (T))
    | Dispatch.HMHT -> (module Pop_ds.Hash_table.Make (T))
    | _ -> invalid_arg "Driver.set_module: the benchmark traces hml and hmht only"
  end

let run_cell w inp ~scheme ~traced ~window ~span_capacity =
  let (module S) = set_module ~traced w.ds scheme in
  (* As Runner does: collect the previous cell's garbage now, not
     during this cell's set-up or window. *)
  Gc.compact ();
  let locals =
    if traced then Trace.start_cell ~threads:(workers + 1) ~capacity:span_capacity else [||]
  in
  let t_setup = Trace.now () in
  let hub = Softsignal.create ~max_threads:(workers + 1) in
  let set =
    S.create
      (Smr_config.default ~max_threads:(workers + 1) ())
      (Pop_ds.Ds_config.default ~key_range:w.key_range)
      ~hub
  in
  let prefilled = Array.make w.key_range false in
  let pctx = S.register set ~tid:workers in
  List.iter (fun k -> if S.insert pctx k then prefilled.(k) <- true) inp.prefill;
  S.flush pctx;
  S.deregister pctx;
  let setup_s = Trace.now () -. t_setup in
  let stats0 = S.smr_stats set in
  let runs0 = Softsignal.handler_runs hub in
  let gc0 = Gc.quick_stat () in
  let ready = Atomic.make 0 and finished = Atomic.make 0 and snapped = Atomic.make false in
  let final = ref None in
  let worker tid () =
    let ctx = S.register set ~tid in
    let stream = inp.streams.(tid) in
    let mask = Array.length stream - 1 in
    let delta = Array.make w.key_range 0 in
    let lat = Hist.create ~width_ns:10 in
    let ops = ref 0 and tried = ref 0 and ok = ref 0 in
    let hb0 = Softsignal.heartbeat hub tid in
    let mw0 = Gc.minor_words () in
    Atomic.incr ready;
    while Atomic.get ready < workers do
      Domain.cpu_relax ()
    done;
    let t_start = Trace.now () in
    let deadline = t_start +. window in
    let stall_due = ref (if w.stall && tid = 0 then t_start +. (stall_at *. window) else infinity) in
    let now = ref t_start in
    while !now < deadline do
      if !now >= !stall_due then begin
        (* Stuck inside an operation until the window closes, still
           answering pings; not counted as an operation. *)
        S.stall ctx ~wake:(fun () -> Trace.now () >= deadline) ~seconds:window ~polling:true;
        stall_due := infinity;
        now := Trace.now ()
      end
      else begin
        let code = stream.(!ops land mask) in
        let k = code lsr 2 in
        if traced then Trace.op_begin locals.(tid);
        let a = Trace.now () in
        (match code land 3 with
        | 0 -> ignore (S.contains ctx k)
        | 1 ->
            incr tried;
            if S.insert ctx k then begin
              incr ok;
              delta.(k) <- delta.(k) + 1
            end
        | _ ->
            incr tried;
            if S.delete ctx k then begin
              incr ok;
              delta.(k) <- delta.(k) - 1
            end);
        let b = Trace.now () in
        if traced then Trace.op_end locals.(tid) a b;
        Hist.record_s lat (b -. a);
        incr ops;
        S.poll ctx;
        now := b
      end
    done;
    let polls = Softsignal.heartbeat hub tid - hb0 in
    let minor_words = Gc.minor_words () -. mw0 in
    let t_end = Trace.now () in
    (* The last worker out snapshots the counters before anyone
       flushes, so end-of-cell drains are not billed to the window.
       The other keeps polling: the last one may be waiting on its
       ack. *)
    if Atomic.fetch_and_add finished 1 = workers - 1 then begin
      final := Some (S.smr_stats set, Softsignal.handler_runs hub, Gc.quick_stat ());
      Atomic.set snapped true
    end
    else
      while not (Atomic.get snapped) do
        S.poll ctx;
        Domain.cpu_relax ()
      done;
    S.flush ctx;
    S.deregister ctx;
    {
      w_ops = !ops;
      w_start = t_start;
      w_end = t_end;
      w_lat = lat;
      w_tried = !tried;
      w_ok = !ok;
      w_delta = delta;
      w_polls = polls;
      w_minor_words = minor_words;
    }
  in
  let outs = Array.map Domain.join (Array.init workers (fun tid -> Domain.spawn (worker tid))) in
  let stats1, runs1, gc1 = Option.get !final in
  let sum f = Array.fold_left (fun acc o -> acc + f o) 0 outs in
  let ops = sum (fun o -> o.w_ops) in
  let elapsed =
    Array.fold_left (fun acc o -> Float.max acc o.w_end) neg_infinity outs
    -. Array.fold_left (fun acc o -> Float.min acc o.w_start) infinity outs
  in
  let lat = Hist.create ~width_ns:10 in
  Array.iter (fun o -> Hist.merge_into lat ~src:o.w_lat) outs;
  (* Correctness: the final contents must be exactly the prefill plus
     every successful update, key by key; the structure's invariants
     must hold; the heap must have seen no use-after-free and no
     double free. *)
  let failure =
    let present = Array.make w.key_range false in
    List.iter (fun k -> present.(k) <- true) (S.keys_seq set);
    let wrong = ref 0 in
    Array.iteri
      (fun k p ->
        let expected = Array.fold_left (fun acc o -> acc + o.w_delta.(k)) (Bool.to_int prefilled.(k)) outs in
        if expected <> Bool.to_int p then incr wrong)
      present;
    let uaf = S.heap_uaf set and double_free = S.heap_double_free set in
    match S.check_invariants set with
    | exception Failure msg -> Some ("invariants: " ^ msg)
    | () ->
        if !wrong > 0 then Some (Printf.sprintf "%d keys differ from prefill + successful updates" !wrong)
        else if uaf > 0 then Some (Printf.sprintf "%d uses after free" uaf)
        else if double_free > 0 then Some (Printf.sprintf "%d double frees" double_free)
        else None
  in
  {
    scheme;
    traced;
    setup_s;
    ops;
    window_s = elapsed;
    lat;
    peak_garbage = stats1.Smr_stats.max_unreclaimed;
    failure;
    tried = sum (fun o -> o.w_tried);
    succeeded = sum (fun o -> o.w_ok);
    polls = sum (fun o -> o.w_polls);
    minor_words = Array.fold_left (fun acc o -> acc +. o.w_minor_words) 0.0 outs;
    stats0;
    stats1;
    handler_runs = runs1 - runs0;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    (* The workers' locals only: the prefill's (tid [workers]) holds
       set-up work, not the window's. *)
    locals = (if traced then Array.sub locals 0 workers else [||]);
  }

(* {1 A run: [reps] rounds over every scheme, then the metrics} *)

type metric = { name : string; value : float; unit : string; samples : int }

type result = { attempted : int; failed : int; metrics : metric list }

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

let fi = float_of_int

(* Every metric pools all cells of the scheme: operations over window
   time, and the mean over cells of each cell's latency quantiles and
   peak garbage. A cell's quantile, not the merged histogram's: cells
   of one workload can run at two speeds (README.md, "Noise"), and a
   quantile of the merged histogram jumps from one speed to the other
   as the mix crosses it, where the mean moves with the mix. *)
let end_to_end ~schemes ~reps cells =
  let per_scheme s =
    let cs = List.filter (fun (_, c) -> c.scheme = s && not c.traced) cells |> List.map snd in
    let n = List.length cs and name m = m ^ "." ^ Dispatch.smr_name s in
    let mean f = List.fold_left (fun acc c -> acc +. f c) 0.0 cs /. fi n in
    let ops = List.fold_left (fun acc c -> acc + c.ops) 0 cs in
    let time = List.fold_left (fun acc c -> acc +. c.window_s) 0.0 cs in
    [
      { name = name "mops"; value = fi ops /. time /. 1e6; unit = "Mops/s"; samples = n };
      {
        name = name "lat_p50_us";
        value = mean (fun c -> Hist.quantile c.lat 0.5 /. 1e3);
        unit = "us";
        samples = ops;
      };
      {
        name = name "lat_p99_us";
        value = mean (fun c -> Hist.quantile c.lat 0.99 /. 1e3);
        unit = "us";
        samples = ops;
      };
      { name = name "peak_garbage"; value = mean (fun c -> fi c.peak_garbage); unit = "nodes"; samples = n };
    ]
  in
  let setup rep =
    List.fold_left
      (fun acc (r, c) -> if r = rep && not c.traced then acc +. c.setup_s else acc)
      0.0 cells
  in
  List.concat_map per_scheme schemes
  @ [ { name = "setup_s"; value = median (List.init reps setup); unit = "s"; samples = reps } ]

(* Per-layer metrics from the traced cells, pooled over reps. Counter
   deltas cover the timed window only (see [run_cell]). *)
let per_layer ~schemes cells =
  let per_scheme s =
    let mine traced = List.filter (fun (_, c) -> c.scheme = s && c.traced = traced) cells |> List.map snd in
    let cs = mine true in
    let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 cs in
    let sum_l f = sum (fun c -> Array.fold_left (fun acc l -> acc +. f l) 0.0 c.locals) in
    let delta f = sum (fun c -> fi (f c.stats1 - f c.stats0)) in
    let max_of f = List.fold_left (fun acc c -> max acc (f c.stats1)) 0 cs in
    let ops = sum (fun c -> fi c.ops) in
    let empty = Trace.empty_span_s () in
    let fast = Hist.create ~width_ns:1 in
    List.iter (fun c -> Array.iter (fun l -> Hist.merge_into fast ~src:l.Trace.retire_fast) c.locals) cs;
    let fast_ns = Hist.quantile fast 0.5 in
    let pass_ns = List.concat_map (fun c -> Array.to_list c.locals |> List.concat_map (fun l -> l.Trace.passes)) cs in
    let pass_ns = List.map (fun d -> (d *. 1e9) -. fast_ns) pass_ns in
    let passes = delta (fun st -> st.Smr_stats.reclaim_passes + st.Smr_stats.pop_passes) in
    let pop_passes = delta (fun st -> st.Smr_stats.pop_passes) in
    let mean_ns s n = if n = 0.0 then 0.0 else ((s /. n) -. empty) *. 1e9 in
    let mops traced =
      let cs = mine traced in
      ratio (List.fold_left (fun acc c -> acc +. fi c.ops) 0.0 cs) (List.fold_left (fun acc c -> acc +. c.window_s) 0.0 cs)
    in
    let m name unit value =
      { name = name ^ "." ^ Dispatch.smr_name s; value; unit; samples = List.length cs }
    in
    [
      m "ds.self_ns" "ns" (ratio (sum_l (fun l -> l.Trace.self_s)) (sum_l (fun l -> fi l.Trace.self_n)) *. 1e9);
      m "ds.reads_per_op" "reads/op" (ratio (sum_l (fun l -> fi l.Trace.reads)) ops);
      m "ds.update_success_ratio" "ratio" (ratio (sum (fun c -> fi c.succeeded)) (sum (fun c -> fi c.tried)));
      m "smr.read_ns" "ns" (mean_ns (sum_l (fun l -> l.Trace.read_s)) (sum_l (fun l -> fi l.Trace.read_n)));
      m "smr.polls_per_op" "polls/op" (ratio (sum (fun c -> fi c.polls)) ops);
      m "smr.retire_fast_ns" "ns" (if Hist.count fast = 0 then 0.0 else fast_ns -. (empty *. 1e9));
      m "heap.alloc_ns" "ns" (mean_ns (sum_l (fun l -> l.Trace.alloc_s)) (sum_l (fun l -> fi l.Trace.alloc_n)));
      m "heap.allocs_per_op" "allocs/op" (ratio (sum_l (fun l -> fi l.Trace.allocs)) ops);
      m "heap.block_traffic_per_kop" "blocks/kop"
        (1e3 *. ratio (delta (fun st -> st.Smr_stats.block_grabs + st.Smr_stats.block_returns)) ops);
      m "reclaimer.passes_per_kop" "passes/kop" (1e3 *. ratio passes ops);
      m "reclaimer.pop_passes" "count" pop_passes;
      m "reclaimer.pass_ns.p50" "ns" (median pass_ns);
      m "reclaimer.pass_ns.max" "ns" (List.fold_left Float.max 0.0 pass_ns);
      m "reclaimer.freed_per_pass" "nodes/pass" (ratio (delta (fun st -> st.Smr_stats.freed)) passes);
      m "reclaimer.snapshot_reuse_ratio" "ratio"
        (ratio
           (delta (fun st -> st.Smr_stats.snapshot_reuses))
           (passes +. delta (fun st -> st.Smr_stats.scan_skips)));
      m "reclaimer.max_scan_blocks" "blocks" (fi (max_of (fun st -> st.Smr_stats.max_scan_blocks)));
      m "reclaimer.max_pause_us" "us" (fi (max_of (fun st -> st.Smr_stats.max_pause_ns)) /. 1e3);
      m "handshake.pings_per_pass" "pings/pass" (ratio (delta (fun st -> st.Smr_stats.pings)) pop_passes);
      m "handshake.timeouts" "count" (delta (fun st -> st.Smr_stats.handshake_timeouts));
      m "softsignal.handler_runs_per_kop" "runs/kop" (1e3 *. ratio (sum (fun c -> fi c.handler_runs)) ops);
      m "gc.minor_words_per_op" "words/op" (ratio (sum (fun c -> c.minor_words)) ops);
      m "gc.minor_collections" "count" (sum (fun c -> fi c.minor_gcs));
      m "gc.major_collections" "count" (sum (fun c -> fi c.major_gcs));
      m "trace.overhead_frac" "ratio" (1.0 -. ratio (mops true) (mops false));
    ]
  in
  List.concat_map per_scheme schemes

let counters c =
  let sum_l f = Array.fold_left (fun acc l -> acc + f l) 0 c.locals in
  [
    ("ops", c.ops);
    ("reads", sum_l (fun l -> l.Trace.reads));
    ("allocs", sum_l (fun l -> l.Trace.allocs));
    ("retires", sum_l (fun l -> l.Trace.retires));
    ("update_tried", c.tried);
    ("update_ok", c.succeeded);
    ("polls", c.polls);
    ("handler_runs", c.handler_runs);
    ("minor_words", int_of_float c.minor_words);
    ("minor_gcs", c.minor_gcs);
    ("major_gcs", c.major_gcs);
    ("spans_dropped", sum_l (fun l -> l.Trace.dropped));
  ]
  @ List.map (fun (k, v) -> ("smr0." ^ k, v)) (Smr_stats.to_alist c.stats0)
  @ List.map (fun (k, v) -> ("smr1." ^ k, v)) (Smr_stats.to_alist c.stats1)

let run ?(schemes = schemes) ?reps ?(say = print_string) w ~seed ~seconds ~trace =
  (* A traced round runs each scheme twice (untraced, then traced), so
     it has half the rounds and the same number of cells. *)
  let reps = Option.value reps ~default:(if trace then max 1 (w.reps / 2) else w.reps) in
  let inp = inputs w ~seed in
  let modes = if trace then [ false; true ] else [ false ] in
  let window = seconds /. fi (reps * List.length schemes * List.length modes) in
  (* Stored spans are capped per run (the counts and aggregates are
     not), so the exported trace stays a few tens of MB. *)
  let span_capacity = span_budget / (reps * List.length schemes * workers) in
  say
    (Printf.sprintf "workload=%s seed=%d seconds=%g trace=%b: %d reps x %d schemes x %d modes, %.3f s windows\n"
       w.name seed seconds trace reps (List.length schemes) (List.length modes) window);
  say
    (Printf.sprintf "inputs digest=%s (%d workers x %d ops, %d prefill keys)\n" inp.digest workers
       (Array.length inp.streams.(0)) (List.length inp.prefill));
  if trace then begin
    Trace.calibrate ();
    say
      (Printf.sprintf "span cost: empty %.1f ns, recorded child %.1f ns\n"
         (Trace.empty_span_s () *. 1e9) (Trace.recorded_span_s () *. 1e9))
  end;
  let cells = ref [] in
  for rep = 0 to reps - 1 do
    List.iter
      (fun scheme ->
        List.iter
          (fun traced ->
            let c = run_cell w inp ~scheme ~traced ~window ~span_capacity in
            let label =
              Printf.sprintf "%s %s rep %d%s" w.name (Dispatch.smr_name scheme) rep
                (if traced then " traced" else "")
            in
            say
              (Printf.sprintf "cell %-32s ops=%d mops=%.4f p50=%.2fus p99=%.2fus peak=%d setup=%.4fs %s\n"
                 label c.ops
                 (fi c.ops /. c.window_s /. 1e6)
                 (Hist.quantile c.lat 0.5 /. 1e3)
                 (Hist.quantile c.lat 0.99 /. 1e3)
                 c.peak_garbage c.setup_s
                 (match c.failure with None -> "ok" | Some f -> "FAILED: " ^ f));
            if traced then Trace.add_cell ~label ~t_end:(Trace.now ()) ~counters:(counters c) c.locals;
            cells := (rep, c) :: !cells)
          modes)
      schemes
  done;
  let cells = List.rev !cells in
  let attempted = List.fold_left (fun acc (_, c) -> acc + c.ops) 0 cells in
  let failed =
    List.fold_left (fun acc (_, c) -> if Option.is_some c.failure then acc + c.ops else acc) 0 cells
  in
  let metrics = if trace then per_layer ~schemes cells else end_to_end ~schemes ~reps cells in
  if trace then
    List.iter
      (fun s ->
        let cs = List.filter (fun (_, c) -> c.scheme = s && c.traced) cells in
        let spotted, engine, dropped =
          List.fold_left
            (fun (sp, en, dr) (_, c) ->
              let st0 = c.stats0 and st1 = c.stats1 in
              ( Array.fold_left (fun a l -> a + List.length l.Trace.passes) sp c.locals,
                en + st1.Smr_stats.reclaim_passes + st1.pop_passes - st0.reclaim_passes - st0.pop_passes,
                Array.fold_left (fun a l -> a + l.Trace.dropped) dr c.locals ))
            (0, 0, 0) cs
        in
        let sum_l f = List.fold_left (fun acc (_, c) -> Array.fold_left (fun a l -> a +. f l) acc c.locals) 0.0 cs in
        let sampled = sum_l (fun l -> fi l.Trace.self_n) in
        let plain = sum_l (fun l -> fi (l.Trace.op_id - l.self_n)) in
        say
          (Printf.sprintf
             "%s: %d passes spotted in retire spans, %d counted by the engine; %d spans not stored; sampled ops take %.0f ns, the others %.0f ns\n"
             (Dispatch.smr_name s) spotted engine dropped
             (1e9 *. ratio (sum_l (fun l -> l.Trace.sampled_s)) sampled)
             (1e9 *. ratio (sum_l (fun l -> l.Trace.plain_s)) plain)))
      schemes;
  List.iter
    (fun m -> say (Printf.sprintf "metric %-40s %14.6g %-10s (%d samples)\n" m.name m.value m.unit m.samples))
    metrics;
  say
    (Printf.sprintf "failed_frac=%.6g (%d of %d operations in failed cells)\n"
       (ratio (fi failed) (fi attempted)) failed attempted);
  { attempted; failed; metrics }
