module Clock = Pop_runtime.Clock

type kind = Op | Start_op | End_op | Read | Alloc | Retire | Pass

let name = function
  | Op -> "op"
  | Start_op -> "start_op"
  | End_op -> "end_op"
  | Read -> "read"
  | Alloc -> "alloc"
  | Retire -> "retire"
  | Pass -> "pass"

let layer = function
  | Op -> "ds"
  | Start_op | End_op | Read | Retire -> "smr"
  | Alloc -> "heap"
  | Pass -> "reclaimer"

let sample_every = 1024

let pass_floor_s = 2e-6

let now = Clock.now

type local = {
  tid : int;
  mutable sampled : bool;
  mutable op_id : int;
  mutable op_slot : int;
  mutable op_children : int;
  mutable op_child_s : float;
  mutable reads : int;
  mutable allocs : int;
  mutable retires : int;
  mutable read_s : float;
  mutable read_n : int;
  mutable alloc_s : float;
  mutable alloc_n : int;
  mutable self_s : float;
  mutable self_n : int;
  mutable sampled_s : float;
  mutable plain_s : float;
  retire_fast : Hist.t;
  mutable passes : float list;
  k : kind array;
  times : float array;
  ids : int array;
  mutable len : int;
  mutable dropped : int;
}

let fresh ~tid ~capacity =
  {
    tid;
    sampled = false;
    op_id = 0;
    op_slot = -1;
    op_children = 0;
    op_child_s = 0.0;
    reads = 0;
    allocs = 0;
    retires = 0;
    read_s = 0.0;
    read_n = 0;
    alloc_s = 0.0;
    alloc_n = 0;
    self_s = 0.0;
    self_n = 0;
    sampled_s = 0.0;
    plain_s = 0.0;
    retire_fast = Hist.create ~width_ns:1;
    passes = [];
    k = Array.make capacity Op;
    times = Array.make (2 * capacity) 0.0;
    ids = Array.make (2 * capacity) 0;
    len = 0;
    dropped = 0;
  }

(* The locals of the traced cell being set up or run, indexed by tid.
   Written by the main domain before it spawns the workers. *)
let current : local array ref = ref [||]

let start_cell ~threads ~capacity =
  let ls = Array.init threads (fun tid -> fresh ~tid ~capacity) in
  current := ls;
  ls

let local tid = !current.(tid)

(* Calibrated costs, in seconds: [empty] is what a span with nothing
   inside reads (two back-to-back clock reads); [recorded] is what one
   recorded child span adds to its parent's duration. *)
let empty = ref 0.0

let recorded = ref 0.0

let empty_span_s () = !empty

let recorded_span_s () = !recorded

let reserve l =
  if l.len < Array.length l.k then begin
    let i = l.len in
    l.len <- i + 1;
    i
  end
  else begin
    l.dropped <- l.dropped + 1;
    -1
  end

let fill l i kind t0 t1 parent =
  l.k.(i) <- kind;
  l.times.(2 * i) <- t0;
  l.times.((2 * i) + 1) <- t1;
  l.ids.(2 * i) <- parent;
  l.ids.((2 * i) + 1) <- l.op_id

let store l kind t0 t1 =
  let i = reserve l in
  if i >= 0 then fill l i kind t0 t1 (if l.sampled then l.op_slot else -1)

let op_begin l =
  l.sampled <- l.op_id land (sample_every - 1) = 0;
  if l.sampled then begin
    l.op_children <- 0;
    l.op_child_s <- 0.0;
    l.op_slot <- reserve l
  end

let op_end l t0 t1 =
  if l.sampled then begin
    if l.op_slot >= 0 then fill l l.op_slot Op t0 t1 (-1);
    (* The op span holds one clock read of its own and, per recorded
       child, the wrapper's cost beyond what the child span shows. *)
    let self =
      t1 -. t0 -. !empty -. l.op_child_s
      -. (float_of_int l.op_children *. (!recorded -. !empty))
    in
    l.self_s <- l.self_s +. self;
    l.self_n <- l.self_n + 1;
    l.sampled_s <- l.sampled_s +. (t1 -. t0);
    l.sampled <- false;
    l.op_slot <- -1
  end
  else l.plain_s <- l.plain_s +. (t1 -. t0);
  l.op_id <- l.op_id + 1

let note_child l d =
  l.op_children <- l.op_children + 1;
  l.op_child_s <- l.op_child_s +. d

let child l kind t0 =
  let t1 = now () in
  let d = t1 -. t0 in
  (match kind with
  | Read ->
      l.read_s <- l.read_s +. d;
      l.read_n <- l.read_n + 1
  | Alloc ->
      l.alloc_s <- l.alloc_s +. d;
      l.alloc_n <- l.alloc_n + 1
  | Op | Start_op | End_op | Retire | Pass -> ());
  note_child l d;
  store l kind t0 t1

let retire l t0 ~engine_work =
  let t1 = now () in
  let d = t1 -. t0 in
  l.retires <- l.retires + 1;
  if d >= pass_floor_s && engine_work then begin
    l.passes <- d :: l.passes;
    store l Pass t0 t1
  end
  else begin
    Hist.record_s l.retire_fast d;
    if l.sampled then store l Retire t0 t1
  end;
  if l.sampled then note_child l d

let median a =
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let calibrate () =
  empty :=
    median
      (Array.init 20001 (fun _ ->
           let t0 = now () in
           now () -. t0));
  recorded :=
    median
      (Array.init 5 (fun _ ->
           let n = 16384 in
           let l = fresh ~tid:(-1) ~capacity:n in
           l.sampled <- true;
           let t0 = now () in
           for _ = 1 to n do
             child l Read (now ())
           done;
           (now () -. t0) /. float_of_int n))

(* Chrome trace-event export: spans as complete ("X") events, one
   process per cell, timestamps in µs from program start. *)
let events = Buffer.create (1 lsl 20)

let epoch = now ()

let cells = ref 0

let emit fmt =
  if Buffer.length events > 0 then Buffer.add_char events ',';
  Buffer.add_char events '\n';
  Printf.bprintf events fmt

let us t = (t -. epoch) *. 1e6

let add_cell ~label ~t_end ~counters ls =
  let pid = !cells in
  incr cells;
  emit {|{"name":"process_name","ph":"M","pid":%d,"args":{"name":"%s"}}|} pid label;
  Array.iter
    (fun l ->
      for i = 0 to l.len - 1 do
        let kind = l.k.(i) in
        emit
          {|{"name":"%s","cat":"%s","ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op":%d}}|}
          (name kind) (layer kind) pid l.tid
          (us l.times.(2 * i))
          ((l.times.((2 * i) + 1) -. l.times.(2 * i)) *. 1e6)
          i
          l.ids.(2 * i)
          l.ids.((2 * i) + 1)
      done)
    ls;
  emit {|{"name":"counters","ph":"C","pid":%d,"ts":%.3f,"args":{%s}}|} pid (us t_end)
    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf {|"%s":%d|} k v) counters))

let write path ~meta =
  let oc = open_out path in
  Printf.fprintf oc {|{"displayTimeUnit":"ns","otherData":{%s},"traceEvents":[|}
    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf {|"%s":"%s"|} k v) meta));
  Buffer.output_buffer oc events;
  output_string oc "\n]}\n";
  close_out oc
