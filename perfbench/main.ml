let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--trace-file FILE]"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let trace_file = ref "" in
  let bad msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME read-mostly | update-heavy | stalled-reader");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S total length of the timed windows");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ("--trace-file", Arg.Set_string trace_file, "FILE where --trace 1 writes its Chrome trace");
    ]
    (fun a -> bad ("unexpected argument " ^ a))
    usage;
  let w =
    match Popperf.Driver.find_workload !workload with
    | Some w -> w
    | None -> bad (Printf.sprintf "unknown workload %S" !workload)
  in
  if !seed < 0 then bad "--seed must be given and non-negative";
  if not (!seconds > 0.0 && !seconds <= 600.0) then bad "--seconds must lie in (0, 600]";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  let trace = !trace = 1 in
  let r = Popperf.Driver.run w ~seed:!seed ~seconds:!seconds ~trace in
  if trace then begin
    let path =
      if !trace_file <> "" then !trace_file
      else begin
        if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
        Printf.sprintf ".perfbench/trace-%s-seed%d.json" w.name !seed
      end
    in
    Popperf.Trace.write path
      ~meta:[ ("workload", w.name); ("seed", string_of_int !seed); ("ocaml", Sys.ocaml_version) ];
    Printf.printf "trace written to %s\n" path
  end;
  let finite = List.for_all (fun m -> Float.is_finite m.Popperf.Driver.value) r.metrics in
  let metric m =
    Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} m.Popperf.Driver.name
      (if Float.is_finite m.value then m.value else 0.0)
      m.unit
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (r.failed = 0 && finite && r.attempted > 0)
    (max 1 r.attempted) r.failed
    (String.concat ", " (List.map metric r.metrics));
  print_newline ()
