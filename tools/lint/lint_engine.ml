(* The smrlint rule engine: a lexical/structural pass over OCaml sources.

   Not a parser — sources are stripped of comments, string literals and
   character literals (preserving line structure), then a declarative
   rule table runs over the lines. That keeps the whole gate under a
   second while still catching the classes of bug that survive the type
   checker: polymorphic comparison of cyclic node graphs (diverges or
   lies), [Obj.magic], and data-structure code freeing heap nodes behind
   the reclamation scheme's back. *)

type diagnostic = { file : string; line : int; rule : string; message : string }

let format_diagnostic d = Printf.sprintf "%s:%d: [%s] %s" d.file d.line d.rule d.message

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* ------------------------------------------------------------------ *)
(* Source stripping                                                    *)

let strip src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  (* Blank a string literal body starting after its opening quote;
     returns the index just past the closing quote. *)
  let rec skip_string j =
    if j >= n then j
    else
      match src.[j] with
      | '\\' ->
          blank j;
          if j + 1 < n then blank (j + 1);
          skip_string (j + 2)
      | '"' ->
          blank j;
          j + 1
      | _ ->
          blank j;
          skip_string (j + 1)
  in
  let i = ref 0 in
  let depth = ref 0 in
  while !i < n do
    let c = src.[!i] in
    let two p = !i + 1 < n && src.[!i + 1] = p in
    if !depth > 0 then
      if c = '(' && two '*' then begin
        blank !i;
        blank (!i + 1);
        incr depth;
        i := !i + 2
      end
      else if c = '*' && two ')' then begin
        blank !i;
        blank (!i + 1);
        decr depth;
        i := !i + 2
      end
      else if c = '"' then begin
        (* A string inside a comment still hides comment closers. *)
        blank !i;
        i := skip_string (!i + 1)
      end
      else begin
        blank !i;
        incr i
      end
    else if c = '(' && two '*' then begin
      blank !i;
      blank (!i + 1);
      depth := 1;
      i := !i + 2
    end
    else if c = '"' then begin
      blank !i;
      i := skip_string (!i + 1)
    end
    else if c = '\'' && !i + 2 < n && src.[!i + 1] <> '\\' && src.[!i + 2] = '\'' then begin
      (* Simple char literal, including '"' and '('. *)
      blank !i;
      blank (!i + 1);
      blank (!i + 2);
      i := !i + 3
    end
    else if c = '\'' && two '\\' then begin
      (* Escaped char literal: blank through the closing quote. *)
      let j = ref (!i + 2) in
      while !j < n && src.[!j] <> '\'' && !j - !i < 6 do
        incr j
      done;
      for k = !i to min !j (n - 1) do
        blank k
      done;
      i := !j + 1
    end
    else incr i
  done;
  Bytes.to_string out

(* ------------------------------------------------------------------ *)
(* Token scanning                                                      *)

let find_sub line sub from =
  let n = String.length line and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = sub then Some i
    else go (i + 1)
  in
  if m = 0 then None else go from

(* Occurrences of [tok] in [line] delimited by non-identifier characters
   on both sides. A ['.'] immediately before is reported through the
   callback so rules can inspect the qualifier. *)
let iter_token line tok f =
  let m = String.length tok in
  let rec go from =
    match find_sub line tok from with
    | None -> ()
    | Some i ->
        let before_ok = i = 0 || not (is_ident_char line.[i - 1]) in
        let after_ok = i + m >= String.length line || not (is_ident_char line.[i + m]) in
        if before_ok && after_ok then f i;
        go (i + m)
  in
  go 0

let has_token line tok =
  let found = ref false in
  iter_token line tok (fun _ -> found := true);
  !found

(* The word forming a [Module.]-style qualifier ending at [dot_idx]
   (the index of the '.'), or "" when the token is unqualified. *)
let qualifier line idx =
  if idx = 0 || line.[idx - 1] <> '.' then ""
  else begin
    let stop = idx - 1 in
    let start = ref stop in
    while !start > 0 && is_ident_char line.[!start - 1] do
      decr start
    done;
    String.sub line !start (stop - !start)
  end

let preceding_word line idx =
  let j = ref (idx - 1) in
  while !j >= 0 && line.[!j] = ' ' do
    decr j
  done;
  let stop = !j + 1 in
  while !j >= 0 && is_ident_char line.[!j] do
    decr j
  done;
  String.sub line (!j + 1) (stop - !j - 1)

let op_char c = String.contains "=<>!:+*/&|@^~-" c

(* A standalone [=] or [<>] in [line.[from..upto)]: not part of [==],
   [<=], [:=], [->] and friends. *)
let has_structural_eq line from upto =
  let n = min upto (String.length line) in
  let standalone i len =
    (i = 0 || not (op_char line.[i - 1]))
    && (i + len >= n || not (op_char line.[i + len]))
  in
  let rec go i =
    if i >= n then false
    else if line.[i] = '<' && i + 1 < n && line.[i + 1] = '>' && standalone i 2 then true
    else if line.[i] = '=' && standalone i 1 then true
    else go (i + 1)
  in
  go from

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)

type rule = {
  name : string;
  applies : string -> bool;  (* repo-relative path, '/'-separated *)
  check : string -> string option;  (* one stripped source line *)
  doc : string;
}

let ml_file path = Filename.check_suffix path ".ml"

let under dir path =
  let d = dir ^ "/" in
  String.length path >= String.length d && String.sub path 0 (String.length d) = d

(* Directories whose modules own node freeing: the schemes themselves
   and the heap. Everything else must go through retire or
   free_unpublished. *)
let scheme_land path =
  under "lib/core" path || under "lib/simheap" path || under "lib/baselines" path

(* Where the raw, untyped [Smr.S] interface may legitimately appear:
   scheme-land, the sanitizer (it wraps raw schemes), and the dispatch
   bridge (the one place that applies [Smr_typed.Of] to raw modules).
   Data-structure and harness code goes through the typed facade. *)
let raw_smr_ok path =
  scheme_land path || under "lib/check" path
  || path = "lib/harness/dispatch.ml"
  || path = "lib/harness/dispatch.mli"

let node_accessors = [ ".next"; ".nexts"; ".tgt"; ".left"; ".right"; ".children"; ".free_next" ]

let segment_stoppers = [ " in "; " let "; ";"; "{"; "}"; " then"; " else"; " done"; " do " ]

let check_node_eq line =
  (* Heuristic: a structural [=]/[<>] applied to the result of a
     protected read — [Atomic.get] followed, before any binder or
     delimiter, by a bare comparison in a phrase that mentions a node
     link field. Node graphs are cyclic, so polymorphic equality on
     them diverges; compare with [==] or by [Heap.node] id instead. *)
  let hit = ref None in
  iter_token line "Atomic.get" (fun i ->
      if !hit = None then begin
        let seg_end =
          List.fold_left
            (fun acc stop ->
              match find_sub line stop (i + 10) with Some j -> min acc j | None -> acc)
            (String.length line) segment_stoppers
        in
        let seg = String.sub line i (seg_end - i) in
        if
          has_structural_eq line (i + 10) seg_end
          && List.exists (fun a -> find_sub seg a 0 <> None) node_accessors
        then
          hit :=
            Some
              "structural =/<> on the result of a protected node read; node graphs are \
               cyclic - compare with == (physical) or by node id"
      end);
  !hit

let check_poly_compare line =
  let hit = ref None in
  iter_token line "compare" (fun i ->
      if !hit = None then begin
        let q = qualifier line i in
        let unqualified = q = "" in
        let banned_qualifier = q = "Stdlib" || q = "Poly" in
        let is_definition = unqualified && preceding_word line i = "let" in
        if (unqualified || banned_qualifier) && not is_definition then
          hit :=
            Some
              "polymorphic compare; use a typed comparator (Int.compare, Float.compare, \
               ...) - on node graphs it diverges"
      end);
  !hit

let rules =
  [
    {
      name = "obj-magic";
      applies = (fun _ -> true);
      check =
        (fun line ->
          if has_token line "Obj.magic" then
            Some "Obj.magic defeats the type system; no use of it is sound here"
          else None);
      doc = "forbid Obj.magic everywhere";
    };
    {
      name = "poly-compare";
      applies = ml_file;
      check = check_poly_compare;
      doc = "forbid bare/Stdlib./Poly. polymorphic compare";
    };
    {
      name = "node-eq";
      applies = ml_file;
      check = check_node_eq;
      doc = "forbid structural =/<> on protected node reads";
    };
    {
      name = "direct-free";
      applies = (fun path -> ml_file path && not (scheme_land path));
      check =
        (fun line ->
          if has_token line "Heap.free" then
            Some
              "direct Heap.free outside the reclamation schemes; use retire, or \
               free_unpublished for nodes that were never published"
          else None);
      doc = "forbid Heap.free outside lib/core, lib/simheap, lib/baselines";
    };
    {
      name = "raw-smr-in-dslib";
      applies =
        (fun path ->
          (Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli")
          && (under "lib" path || under "examples" path)
          && not (raw_smr_ok path));
      check =
        (fun line ->
          if has_token line "Smr" then
            Some
              "raw Smr.S reference outside scheme-land; data-structure and harness \
               code must go through the compile-time typestate facade \
               (Pop_core.Smr_typed.Of / Pop_check.Smr_check.Typed)"
          else None);
      doc =
        "forbid the raw Smr module (untyped scheme interface) outside lib/core, \
         lib/simheap, lib/baselines, lib/check and the dispatch bridge";
    };
    {
      name = "era-per-node";
      applies =
        (fun path ->
          ml_file path && scheme_land path
          && path <> "lib/core/reclaimer.ml"
          && path <> "lib/core/id_set.ml" (* the definition site *));
      check =
        (fun line ->
          if has_token line "exists_in_range" then
            Some
              "per-node snapshot probe in scheme code; era freeability goes through \
               Reclaimer.scan_eras (interval freeability through \
               Reclaimer.scan_intervals), which probes each block's era stamps once \
               and falls back per node only for inconclusive blocks"
          else None);
      doc =
        "forbid Id_set.exists_in_range in scheme code outside the Reclaimer engine \
         (era and interval passes use the block-stamp fast path via \
         Reclaimer.scan_eras and Reclaimer.scan_intervals)";
    };
  ]

(* ------------------------------------------------------------------ *)
(* File-level rules (stateful across lines)                            *)

(* heap-free-loop: a [Heap.free] call issued from inside a lexical
   loop — a for/while body (do..done nesting tracked across lines) or
   an [*.iter]-style traversal on the same line. Per-node free loops
   over block contents defeat the allocator's block-granularity
   hand-off; drained segment blocks and batches go back through
   [Heap.free_block] in one call. Single-node frees (retire_now,
   free_unpublished) remain legal, as does the heap's own
   implementation. Scoped to lib/ outside lib/simheap: tests and
   benches exercise the per-node API on purpose. *)
let heap_free_loop_applies path =
  ml_file path && under "lib" path && not (under "lib/simheap" path)

let heap_free_loop_msg =
  "per-node Heap.free loop over block contents; free drained blocks and batches \
   through Heap.free_block (block-granularity hand-off), not node by node"

let check_heap_free_loop lines =
  let depth = ref 0 in
  let diags = ref [] in
  List.iteri
    (fun idx line ->
      let events = ref [] in
      iter_token line "do" (fun i -> events := (i, `Enter) :: !events);
      iter_token line "done" (fun i -> events := (i, `Leave) :: !events);
      iter_token line "Heap.free" (fun i -> events := (i, `Free) :: !events);
      let iterating =
        has_token line "iter" || has_token line "iteri" || has_token line "map"
        || has_token line "fold_left"
      in
      List.iter
        (fun (_, ev) ->
          match ev with
          | `Enter -> incr depth
          | `Leave -> depth := max 0 (!depth - 1)
          | `Free -> if !depth > 0 || iterating then diags := idx + 1 :: !diags)
        (List.sort (fun (a, _) (b, _) -> Int.compare a b) !events))
    lines;
  List.rev_map
    (fun line -> (line, heap_free_loop_msg))
    !diags

(* fence-free-read: the protected read path runs no barrier (paper
   section 2.1.2) and delivers pending pings (Assumption 1). Inside the
   [fence_free] top-level functions — each POP scheme's [read]/
   [read_from], NBR's [read], and [Softsignal.poll] up to its pending
   check — no sequentially consistent store or read-modify-write may
   appear: no [Atomic] write and no [Striped] write.
   Each [delivers] function (those reads, NBR's [enter_write_phase],
   and the signal-served reads of hp-asym and cadence) must contain the
   [Softsignal.poll] call, so that no protected read can stop testing
   the ping flag. A body runs from its [let]/[and] line to the next
   line that starts in column 0. A guarded function that cannot be
   found is itself a finding, so a rename cannot switch the rule off. *)
type read_guard = {
  path : string;
  fence_free : string list;
  delivers : string list;
  stop : string option; (* fence scanning ends at this token *)
}

let read_guards =
  [
    { path = "lib/core/hazard_ptr_pop.ml"; fence_free = [ "read" ]; delivers = [ "read" ];
      stop = None };
    { path = "lib/core/hazard_era_pop.ml"; fence_free = [ "read"; "read_from" ];
      delivers = [ "read_from" ]; stop = None };
    { path = "lib/core/epoch_pop.ml"; fence_free = [ "read" ]; delivers = [ "read" ];
      stop = None };
    { path = "lib/baselines/nbr.ml"; fence_free = [ "read" ];
      delivers = [ "read"; "enter_write_phase" ]; stop = None };
    { path = "lib/baselines/hp_asym.ml"; fence_free = []; delivers = [ "read" ]; stop = None };
    { path = "lib/baselines/cadence.ml"; fence_free = []; delivers = [ "read" ]; stop = None };
    { path = "lib/runtime/softsignal.ml"; fence_free = [ "poll" ]; delivers = [];
      stop = Some "my_pending" };
  ]

let fenced_writes =
  [
    "Atomic.set"; "Atomic.incr"; "Atomic.decr"; "Atomic.fetch_and_add"; "Atomic.exchange";
    "Atomic.compare_and_set"; "Striped.set"; "Striped.incr"; "Striped.add";
  ]

let defined_name line =
  if line = "" || line.[0] = ' ' then None
  else
    match String.split_on_char ' ' line |> List.filter (fun w -> w <> "") with
    | ("let" | "and") :: "rec" :: name :: _ | ("let" | "and") :: name :: _ -> Some name
    | _ -> None

let check_read_path path lines =
  match List.find_opt (fun g -> g.path = path) read_guards with
  | None -> []
  | Some g ->
      let diags = ref [] and seen = ref [] and polled = ref [] in
      let inside = ref None and scanning = ref false in
      List.iteri
        (fun idx line ->
          if line <> "" && line.[0] <> ' ' then begin
            inside := None;
            match defined_name line with
            | Some n when List.mem n g.fence_free || List.mem n g.delivers ->
                seen := (n, idx + 1) :: !seen;
                inside := Some n;
                scanning := List.mem n g.fence_free
            | _ -> ()
          end;
          match !inside with
          | None -> ()
          | Some name ->
              if has_token line "Softsignal.poll" then polled := name :: !polled;
              if !scanning then begin
                (* Only the part of the stop line before the stop token counts. *)
                let scanned =
                  match Option.bind g.stop (fun tok -> find_sub line tok 0) with
                  | Some i ->
                      scanning := false;
                      String.sub line 0 i
                  | None -> line
                in
                List.iter
                  (fun tok ->
                    if has_token scanned tok then
                      diags :=
                        ( idx + 1,
                          Printf.sprintf
                            "%s in %s: the protected read path runs no barrier; keep \
                             owner-written words plain (Pop_runtime.Padded)"
                            tok name )
                        :: !diags)
                  fenced_writes
              end)
        lines;
      let missing =
        List.filter_map
          (fun n ->
            if List.mem_assoc n !seen then None
            else Some (1, Printf.sprintf "guarded function %s not found; update the rule" n))
          (List.sort_uniq String.compare (g.fence_free @ g.delivers))
      in
      let deaf =
        List.filter_map
          (fun n ->
            match List.assoc_opt n !seen with
            | Some line when not (List.mem n !polled) ->
                Some
                  ( line,
                    Printf.sprintf
                      "%s has no Softsignal.poll: every protected read must test the ping \
                       flag and deliver"
                      n )
            | _ -> None)
          g.delivers
      in
      missing @ List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) (deaf @ List.rev !diags)

let file_rules =
  [
    ("heap-free-loop", heap_free_loop_applies, fun _path -> check_heap_free_loop);
    ( "fence-free-read",
      (fun path -> List.exists (fun g -> g.path = path) read_guards),
      check_read_path );
  ]

let check_source ~path contents =
  let stripped = strip contents in
  let lines = String.split_on_char '\n' stripped in
  let applicable = List.filter (fun r -> r.applies path) rules in
  let diags = ref [] in
  List.iteri
    (fun idx line ->
      List.iter
        (fun r ->
          match r.check line with
          | Some message -> diags := { file = path; line = idx + 1; rule = r.name; message } :: !diags
          | None -> ())
        applicable)
    lines;
  let file_diags =
    List.concat_map
      (fun (name, applies, check) ->
        if applies path then
          List.map
            (fun (line, message) -> { file = path; line; rule = name; message })
            (check path lines)
        else [])
      file_rules
  in
  List.sort
    (fun a b -> if a.line <> b.line then Int.compare a.line b.line else String.compare a.rule b.rule)
    (List.rev_append !diags file_diags)

(* ------------------------------------------------------------------ *)
(* Tree walking and the missing-mli rule                               *)

let scan_dirs = [ "lib"; "bin"; "test"; "bench"; "examples" ]

let list_sources root =
  let acc = ref [] in
  let rec walk rel abs =
    match Sys.is_directory abs with
    | exception Sys_error _ -> ()
    | false ->
        if Filename.check_suffix rel ".ml" || Filename.check_suffix rel ".mli" then
          acc := rel :: !acc
    | true ->
        Array.iter
          (fun entry ->
            (* Skip _build, .objs and other tool litter. *)
            if entry <> "" && entry.[0] <> '.' && entry.[0] <> '_' then
              walk (rel ^ "/" ^ entry) (Filename.concat abs entry))
          (Sys.readdir abs)
  in
  List.iter (fun d -> walk d (Filename.concat root d)) scan_dirs;
  List.sort String.compare !acc

let missing_mli files =
  let set = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace set f ()) files;
  List.filter_map
    (fun f ->
      if
        under "lib" f
        && Filename.check_suffix f ".ml"
        && (not (Filename.check_suffix f "_intf.ml"))
        && not (Hashtbl.mem set (f ^ "i"))
      then
        Some
          {
            file = f;
            line = 1;
            rule = "missing-mli";
            message = "library module without an interface file; add " ^ f ^ "i";
          }
      else None)
    files

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* allow.sexp: a flat list of [(rule path)] pairs, [;] comments. *)
let parse_allow contents =
  let no_comments =
    String.split_on_char '\n' contents
    |> List.map (fun l -> match String.index_opt l ';' with Some i -> String.sub l 0 i | None -> l)
    |> String.concat " "
  in
  let tokens =
    String.map (function '(' | ')' | '\t' -> ' ' | c -> c) no_comments
    |> String.split_on_char ' '
    |> List.filter (fun t -> t <> "")
  in
  let rec pair = function
    | rule :: path :: rest -> (rule, path) :: pair rest
    | [ stray ] -> invalid_arg ("allow.sexp: dangling token " ^ stray)
    | [] -> []
  in
  pair tokens

let check_tree ~root ~allow =
  let files = list_sources root in
  let lexical =
    List.concat_map
      (fun f -> check_source ~path:f (read_file (Filename.concat root f)))
      files
  in
  let all = lexical @ missing_mli files in
  let used = Hashtbl.create 8 in
  let kept =
    List.filter
      (fun d ->
        let grandfathered = List.mem (d.rule, d.file) allow in
        if grandfathered then Hashtbl.replace used (d.rule, d.file) ();
        not grandfathered)
      all
  in
  let notes =
    List.filter_map
      (fun (rule, path) ->
        if Hashtbl.mem used (rule, path) then None
        else Some (Printf.sprintf "note: unused allow.sexp entry (%s %s)" rule path))
      allow
  in
  (kept, notes)
