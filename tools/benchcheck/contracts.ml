open Pop_harness

exception Violation of string

let fail fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt

(* A value and the JSON path that reached it, so that every message
   names the field it is about. *)
type at = { path : string; v : Json.t }

let root v = { path = "$"; v }

let get at k =
  match Json.member k at.v with
  | Some v -> { path = at.path ^ "." ^ k; v }
  | None -> fail "%s.%s: missing" at.path k
  | exception Json.Type_error m -> fail "%s: %s" at.path m

let typed conv at k =
  let f = get at k in
  try conv f.v with Json.Type_error m -> fail "%s: %s" f.path m

let num = typed Json.to_number
let int = typed Json.to_int
let bool = typed Json.to_bool
let str = typed Json.to_str
let show x = if Float.is_integer x then Printf.sprintf "%.0f" x else Printf.sprintf "%g" x

let cells at =
  match at.v with
  | Json.List [] -> fail "%s: empty, expected at least one cell" at.path
  | Json.List vs -> List.mapi (fun i v -> { path = Printf.sprintf "%s[%d]" at.path i; v }) vs
  | v -> fail "%s: expected an array, got %s" at.path (Json.kind v)

(* The assertions: one predicate over each named field of one cell. *)
let numbers ok expected at keys =
  List.iter
    (fun k ->
      let x = num at k in
      if not (ok x) then fail "%s.%s: %s, expected %s" at.path k (show x) expected)
    keys

let zero = numbers (fun x -> x = 0.) "0"
let positive = numbers (fun x -> x > 0.) "> 0"
let non_negative = numbers (fun x -> x >= 0.) ">= 0"
let present conv at keys = List.iter (fun k -> ignore (conv at k)) keys
let holds at keys = List.iter (fun k -> if not (bool at k) then fail "%s.%s: false" at.path k) keys

(* [rel] between each field and the next. *)
let chain rel negated at keys =
  let rec go = function
    | a :: (b :: _ as rest) ->
        let x = num at a and y = num at b in
        if not (rel x y) then fail "%s.%s = %s %s %s = %s" at.path a (show x) negated b (show y);
        go rest
    | _ -> ()
  in
  go keys

let ordered = chain ( <= ) ">"
let equal = chain Float.equal "<>"

(* [popbench --json]: a finite throughput, the scheme's stats, and a
   safe, consistent run. *)
let json doc =
  let cs = cells (root doc) in
  List.iter
    (fun c ->
      present num c [ "mops" ];
      holds c [ "consistent" ];
      zero c [ "uaf"; "double_free" ];
      let smr = get c "smr" in
      present int smr [ "snapshot_reuses" ];
      zero smr [ "violations" ])
    cs;
  Printf.sprintf "%d cells" (List.length cs)

(* A sanitized exit+crash+join cell: events fired, the failure-detector
   and orphanage stats present, and every category the sanitizer defines
   — no more, no fewer — at zero. *)
let churn doc =
  let c =
    match cells (root doc) with
    | [ c ] -> c
    | cs -> fail "$: %d cells, expected one churn cell" (List.length cs)
  in
  let exited = int c "exited" and crashed = int c "crashed" and joined = int c "joined" in
  if exited + crashed < 1 then fail "%s.exited + crashed: 0, expected a churn event" c.path;
  holds c [ "consistent" ];
  let smr = get c "smr" in
  present int smr [ "suspects"; "quarantine_rounds"; "orphan_stripe_contention" ];
  present int smr [ "orphans_donated"; "orphans_adopted" ];
  zero smr [ "violations"; "stale_stamps" ];
  let cats = get c "violations_by_category" in
  let expected = List.map fst Pop_check.Smr_check.(to_alist zero) in
  let got =
    try List.map fst (Json.to_assoc cats.v) with Json.Type_error m -> fail "%s: %s" cats.path m
  in
  let absent xs ys = String.concat "," (List.filter (fun x -> not (List.mem x ys)) xs) in
  if absent expected got ^ absent got expected <> "" then
    fail "%s: categories differ from Smr_check: missing [%s], unexpected [%s]" cats.path
      (absent expected got) (absent got expected);
  zero cats expected;
  Printf.sprintf "exited=%d crashed=%d joined=%d, %d categories clean" exited crashed joined
    (List.length expected)

(* [bench --fig seg]: blocks recycled, freed-set parity, block-level era
   verdicts firing, no stale stamps, exactly-once splice-free hand-off. *)
let seg doc =
  let d = root doc in
  let pass = cells (get d "pass_cost") in
  let era = cells (get d "era_span") in
  let donor = cells (get d "donor_churn") in
  List.iter
    (fun c ->
      positive c [ "segments_recycled"; "fresh_ns_per_pass"; "forced_ns_per_pass" ];
      equal c [ "freed_per_pass"; "uncovered" ])
    pass;
  List.iter
    (fun c ->
      equal c [ "freed_per_pass"; "uncovered" ];
      positive c [ "block_keeps"; "block_skips"; "fresh_ns_per_pass" ];
      zero c [ "stale_stamps" ])
    era;
  List.iter
    (fun c ->
      zero c [ "splice_moves" ];
      equal c [ "donated"; "adopted"; "nodes" ];
      positive c [ "handoff_mops" ])
    donor;
  Printf.sprintf "%d+%d+%d cells, %d blocks recycled" (List.length pass) (List.length era)
    (List.length donor)
    (List.fold_left (fun a c -> a + int c "segments_recycled") 0 pass)

(* [bench --fig kv]: KV-mode cells with samples, finite non-negative
   ordered percentiles, and a clean sanitized run. *)
let kv doc =
  let cs = cells (root doc) in
  List.iter
    (fun c ->
      holds c [ "kv"; "consistent" ];
      positive c [ "lat_count" ];
      non_negative c [ "p50"; "p99"; "p999"; "max"; "max_pause" ];
      ordered c [ "p50"; "p99"; "p999"; "max" ];
      zero (get c "smr") [ "violations" ])
    cs;
  Printf.sprintf "%d cells, worst p999 %.1f us" (List.length cs)
    (List.fold_left (fun w c -> Float.max w (num c "p999")) 0. cs)

(* [bench --fig alloc]: finite positive ns/op and heap safety in every
   sweep, balanced cells off the shared pool, and blocks circulating
   wherever producer/consumer imbalance exists (threads >= 2). *)
let alloc doc =
  let d = root doc in
  let sweep k =
    let cs = cells (get d k) in
    List.iter (fun c -> positive c [ "ns_per_op" ]; zero c [ "uaf"; "double_free" ]) cs;
    cs
  in
  let balanced = sweep "balanced" in
  let imbalanced = sweep "imbalanced" in
  let churn = sweep "churn" in
  List.iter (fun c -> zero c [ "block_grabs"; "block_returns" ]) balanced;
  let imb = List.filter (fun c -> int c "threads" >= 2) imbalanced in
  if imb = [] then fail "$.imbalanced: no cell with threads >= 2";
  List.iter (fun c -> positive c [ "block_grabs"; "block_returns" ]) imb;
  Printf.sprintf "%d+%d+%d cells, %d blocks circulated under imbalance" (List.length balanced)
    (List.length imbalanced) (List.length churn)
    (List.fold_left (fun a c -> a + int c "block_grabs") 0 imb)

(* The tournament slice [--smrs ebr,hyaline-1s --scenarios
   stall-poll,crash,kv-skew]: six sanitized, self-describing cells with
   finite robustness scores and no safety violation. *)
let tournament_scenarios = [ "crash"; "kv-skew"; "stall-poll" ]

let tournament doc =
  let cs = cells (root doc) in
  let n = List.length cs in
  if n <> 6 then fail "$: %d cells, expected 6 (2 schemes x 3 scenarios)" n;
  let scenario c =
    let sc = get c "scenario" in
    holds sc [ "sanitize" ];
    non_negative c [ "max_unreclaimed"; "recovery_ns"; "pre_mops" ];
    present bool c [ "recovered" ];
    zero (get c "smr") [ "violations" ];
    zero c [ "uaf"; "double_free" ];
    holds c [ "consistent" ];
    let name = List.hd (String.split_on_char '/' (str c "label")) in
    if name = "stall-poll" && (get sc "stall").v = Null then
      fail "%s.stall: null, expected the stall shape" sc.path;
    name
  in
  let got = List.sort_uniq String.compare (List.map scenario cs) in
  if got <> tournament_scenarios then
    fail "$[*].label: scenarios [%s], expected [%s]" (String.concat "," got)
      (String.concat "," tournament_scenarios);
  Printf.sprintf "%d cells, scenarios %s" n (String.concat "," got)

type t = { name : string; check : Json.t -> string }

let all =
  [
    { name = "json"; check = json };
    { name = "churn"; check = churn };
    { name = "seg"; check = seg };
    { name = "kv"; check = kv };
    { name = "alloc"; check = alloc };
    { name = "tournament"; check = tournament };
  ]

let find name = List.find_opt (fun c -> c.name = name) all
let run c doc = match c.check doc with summary -> Ok summary | exception Violation m -> Error m
