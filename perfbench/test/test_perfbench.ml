(* Non-vacuity and contract checks for [Driver], at tiny sizes: a
   scheme that frees unsafely must fail the correctness checks,
   the three POP schemes must pass them, and every metric named in
   BENCHMARK.json must be emitted, finite, with the unit declared
   there. *)

open Popperf

let fail fmt = Printf.ksprintf failwith fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* BENCHMARK.json lists each metric as one {"name": ..., "unit": ...}
   object; collect (name, unit) pairs of the named section. *)
let declared section =
  let text = read_file "../../BENCHMARK.json" in
  let start = Str.search_forward (Str.regexp_string (Printf.sprintf {|"%s"|} section)) text 0 in
  let stop = try String.index_from text start ']' with Not_found -> String.length text in
  let re = Str.regexp {|"name": *"\([^"]*\)", *"unit": *"\([^"]*\)"|} in
  let rec go pos acc =
    match Str.search_forward re text pos with
    | p when p < stop -> go (Str.match_end ()) ((Str.matched_group 1 text, Str.matched_group 2 text) :: acc)
    | _ | (exception Not_found) -> List.rev acc
  in
  go start []

let tiny_run ?schemes w ~trace = Driver.run ?schemes ~reps:1 ~say:ignore w ~seed:7 ~seconds:0.6 ~trace

let metric r name =
  match List.find_opt (fun m -> String.equal m.Driver.name name) r.Driver.metrics with
  | Some m -> m.value
  | None -> fail "metric %s missing" name

let check_metrics ~section (r : Driver.result) =
  let want = declared section in
  if want = [] then fail "no %s metrics declared in BENCHMARK.json" section;
  let got = List.map (fun m -> (m.Driver.name, m.unit)) r.metrics in
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name got with
      | None -> fail "%s metric %s is not emitted" section name
      | Some u when not (String.equal u unit) -> fail "%s: unit %s, BENCHMARK.json says %s" name u unit
      | Some _ -> ())
    want;
  List.iter
    (fun m ->
      if not (List.mem_assoc m.Driver.name want) then fail "%s is emitted but not declared" m.name;
      if not (Float.is_finite m.value) then fail "%s is not finite" m.name;
      if String.length m.unit = 0 then fail "%s has no unit" m.name)
    r.metrics

let unsafe_free_fails () =
  let w =
    {
      Driver.name = "tiny";
      ds = Pop_harness.Dispatch.HML;
      key_range = 16;
      mix = Pop_harness.Workload.update_heavy;
      stall = false;
      reps = 1;
    }
  in
  (* Unsafe frees surface as use-after-free within milliseconds on a
     16-key list; a few attempts make a quiet scheduler harmless. *)
  let rec attempt n =
    let r = tiny_run ~schemes:[ Pop_harness.Dispatch.UNSAFE ] w ~trace:false in
    if r.failed > 0 then r
    else if n > 1 then attempt (n - 1)
    else fail "unsafe-free passed every check: the checks are vacuous"
  in
  let r = attempt 5 in
  if not (r.failed > 0 && r.failed <= r.attempted) then fail "unsafe-free: failed_frac not in (0, 1]"

let () =
  unsafe_free_fails ();
  let runs =
    List.map
      (fun w ->
        let plain = tiny_run w ~trace:false and traced = tiny_run w ~trace:true in
        List.iter
          (fun (r : Driver.result) ->
            if r.attempted <= 0 then fail "%s: no operations" w.Driver.name;
            if r.failed <> 0 then fail "%s: %d of %d operations failed" w.name r.failed r.attempted)
          [ plain; traced ];
        check_metrics ~section:"end_to_end" plain;
        check_metrics ~section:"per_layer" traced;
        (w.name, traced))
      Driver.workloads
  in
  (* The workloads split the layers as designed. Pass counts are too
     few to compare at this size; allocation traffic, which drives
     them, is not. *)
  let traced name = List.assoc name runs in
  List.iter
    (fun s ->
      let at w m = metric (traced w) (m ^ "." ^ s) in
      let dominates ~m ~by hi lo =
        if at hi m < by *. at lo m then fail "%s %s: %s %g < %g x %s %g" s m hi (at hi m) by lo (at lo m)
      in
      dominates ~m:"ds.reads_per_op" ~by:10.0 "read-mostly" "update-heavy";
      dominates ~m:"heap.allocs_per_op" ~by:5.0 "update-heavy" "read-mostly")
    [ "hp-pop"; "he-pop"; "epoch-pop" ];
  if metric (traced "stalled-reader") "reclaimer.pop_passes.epoch-pop" <= 0.0 then
    fail "epoch-pop never fell back to publish-on-ping under the stall";
  print_endline "perfbench: Driver checks ok"
