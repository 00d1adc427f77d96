(** Unit tests for the smrlint rule engine (Pop_lint.Lint_engine):
    stripping of comments/strings/chars, each lexical rule's positive
    and negative cases, path scoping, the missing-mli tree rule and the
    allowlist. All synthetic sources live in string literals, which the
    engine strips — so this file cannot trip the repo-wide lint gate it
    is testing. *)

module L = Pop_lint.Lint_engine

let rules_of path src = List.map (fun d -> (d.L.rule, d.L.line)) (L.check_source ~path src)

let flags rule path src = List.exists (fun (r, _) -> r = rule) (rules_of path src)

let sp n = String.make n ' '

let strip_basics () =
  Alcotest.(check string)
    "comments blanked, newlines kept"
    ("let x = 1\n" ^ sp (String.length "(* gone *)") ^ "\nlet y = 2")
    (L.strip "let x = 1\n(* gone *)\nlet y = 2");
  Alcotest.(check string) "nested comments"
    (sp (String.length "(* a (* nested *) b *)") ^ "123" ^ sp (String.length "(* c *)"))
    (L.strip "(* a (* nested *) b *)123(* c *)");
  Alcotest.(check string)
    "strings blanked, quotes too"
    ("let s = " ^ sp 5 ^ " in f s")
    (L.strip "let s = \"abc\" in f s");
  Alcotest.(check string)
    "escaped quote stays inside the string"
    ("let s = " ^ sp 6)
    (L.strip "let s = \"a\\\"b\"");
  Alcotest.(check string) "char literal blanked" ("let c = " ^ sp 3) (L.strip "let c = 'x'");
  Alcotest.(check string)
    "type variables survive" "type 'a t = 'a list" (L.strip "type 'a t = 'a list")

let strip_hides_tokens () =
  Alcotest.(check bool) "magic in comment ignored" false
    (flags "obj-magic" "lib/core/x.ml" "let x = 1 (* Obj.magic *)");
  Alcotest.(check bool) "magic in string ignored" false
    (flags "obj-magic" "lib/core/x.ml" "let x = \"Obj.magic\"");
  Alcotest.(check bool) "compare in comment ignored" false
    (flags "poly-compare" "lib/core/x.ml" "(* Array.sort compare is slow *) let x = 1")

let obj_magic () =
  Alcotest.(check bool) "flagged" true
    (flags "obj-magic" "lib/core/x.ml" "let f x = Obj.magic x");
  Alcotest.(check bool) "applies to every directory" true
    (flags "obj-magic" "bin/main.ml" "let f x = Obj.magic x")

let poly_compare () =
  Alcotest.(check bool) "bare compare as argument" true
    (flags "poly-compare" "lib/a.ml" "let xs = List.sort compare ys");
  Alcotest.(check bool) "Stdlib.compare" true
    (flags "poly-compare" "lib/a.ml" "let xs = List.sort Stdlib.compare ys");
  Alcotest.(check bool) "typed comparator accepted" false
    (flags "poly-compare" "lib/a.ml" "let xs = List.sort Int.compare ys");
  Alcotest.(check bool) "local definition accepted" false
    (flags "poly-compare" "lib/a.ml" "let compare a b = Int.compare a.key b.key");
  Alcotest.(check bool) "identifier containing the word accepted" false
    (flags "poly-compare" "lib/a.ml" "let x = compare_keys a b")

let node_eq () =
  Alcotest.(check bool) "structural = on a node read" true
    (flags "node-eq" "lib/a.ml" "if Atomic.get n.next = m then x");
  Alcotest.(check bool) "structural <> on a node read" true
    (flags "node-eq" "lib/a.ml" "if Atomic.get pred.nexts.(0) <> succ then x");
  Alcotest.(check bool) "physical equality accepted" false
    (flags "node-eq" "lib/a.ml" "if Atomic.get n.next == m then x");
  Alcotest.(check bool) "int cells accepted" false
    (flags "node-eq" "lib/a.ml" "if Atomic.get p.my_pending = 1 then x");
  Alcotest.(check bool) "binder ends the comparison phrase" false
    (flags "node-eq" "lib/a.ml" "let v = Atomic.get n.next in w = v.marked")

let direct_free () =
  let src = "let f ctx n = Heap.free ctx.heap ~tid:0 n" in
  Alcotest.(check bool) "client code flagged" true (flags "direct-free" "lib/dslib/a.ml" src);
  Alcotest.(check bool) "tests flagged" true (flags "direct-free" "test/a.ml" src);
  Alcotest.(check bool) "schemes may free" false
    (flags "direct-free" "lib/baselines/a.ml" src);
  Alcotest.(check bool) "the heap may free" false
    (flags "direct-free" "lib/simheap/heap.ml" src);
  Alcotest.(check bool) "free_unpublished accepted" false
    (flags "direct-free" "lib/dslib/a.ml" "let g ctx n = R.free_unpublished ctx n");
  Alcotest.(check bool) "freed_total accepted" false
    (flags "direct-free" "test/a.ml" "let x = Heap.freed_total h")

let heap_free_loop () =
  let for_loop =
    "let drain l b =\n  for i = 0 to b.len - 1 do\n    Heap.free l.r.heap ~tid:l.tid b.slots.(i)\n  done"
  in
  let iter_loop = "let drain l ns = Array.iter (fun n -> Heap.free l.r.heap ~tid:l.tid n) ns" in
  let block_free =
    "let drain l b =\n  for i = 0 to 3 do\n    Heap.free_block l.r.heap ~tid:l.tid b.(i)\n  done"
  in
  let single = "let retire_now l n = Heap.free l.r.heap ~tid:l.tid n" in
  Alcotest.(check bool) "for-loop body flagged" true
    (flags "heap-free-loop" "lib/core/a.ml" for_loop);
  Alcotest.(check bool) "Array.iter closure flagged" true
    (flags "heap-free-loop" "lib/baselines/a.ml" iter_loop);
  Alcotest.(check bool) "free_block in a loop accepted" false
    (flags "heap-free-loop" "lib/core/a.ml" block_free);
  Alcotest.(check bool) "single free outside loops accepted" false
    (flags "heap-free-loop" "lib/core/a.ml" single);
  Alcotest.(check bool) "free after a closed loop accepted" false
    (flags "heap-free-loop" "lib/core/a.ml"
       "let f l ns =\n  for i = 0 to 3 do ignore ns.(i) done;\n  Heap.free l.r.heap ~tid:l.tid ns.(0)");
  Alcotest.(check bool) "the heap implementation is exempt" false
    (flags "heap-free-loop" "lib/simheap/heap.ml" for_loop);
  Alcotest.(check bool) "tests are exempt (they exercise the per-node API)" false
    (flags "heap-free-loop" "test/a.ml" for_loop);
  Alcotest.(check bool) "benches are exempt" false
    (flags "heap-free-loop" "bench/replay.ml" for_loop)

let raw_smr () =
  let sig_use = "module Make (R : Smr.S) : Set_intf.SET = struct" in
  let call_use = "let go ctx = Pop_core.Smr.wrap ctx" in
  Alcotest.(check bool) "dslib functor over raw Smr flagged" true
    (flags "raw-smr-in-dslib" "lib/dslib/a.ml" sig_use);
  Alcotest.(check bool) "dslib mli flagged too" true
    (flags "raw-smr-in-dslib" "lib/dslib/a.mli" sig_use);
  Alcotest.(check bool) "harness code flagged" true
    (flags "raw-smr-in-dslib" "lib/harness/runner.ml" call_use);
  Alcotest.(check bool) "examples flagged" true
    (flags "raw-smr-in-dslib" "examples/quickstart.ml" call_use);
  Alcotest.(check bool) "scheme-land exempt" false
    (flags "raw-smr-in-dslib" "lib/core/epoch_pop.ml" sig_use);
  Alcotest.(check bool) "the sanitizer is exempt" false
    (flags "raw-smr-in-dslib" "lib/check/smr_check.ml" sig_use);
  Alcotest.(check bool) "the dispatch bridge is exempt" false
    (flags "raw-smr-in-dslib" "lib/harness/dispatch.ml" call_use);
  Alcotest.(check bool) "tests exempt (they rig raw schemes)" false
    (flags "raw-smr-in-dslib" "test/a.ml" sig_use);
  Alcotest.(check bool) "the typed facade does not match" false
    (flags "raw-smr-in-dslib" "lib/dslib/a.ml"
       "module Make (T : Smr_typed.S) : Set_intf.SET = struct");
  Alcotest.(check bool) "Smr_stats/Smr_config do not match" false
    (flags "raw-smr-in-dslib" "lib/harness/runner.ml"
       "let s : Pop_core.Smr_stats.t = stats in let c = Smr_config.default ()")

let era_per_node () =
  let probe = "let keep n = Id_set.exists_in_range snap ~lo:n.birth_era ~hi:n.retire_era" in
  Alcotest.(check bool) "scheme probing per node flagged" true
    (flags "era-per-node" "lib/baselines/hazard_eras.ml" probe);
  Alcotest.(check bool) "core scheme code flagged too" true
    (flags "era-per-node" "lib/core/hazard_era_pop.ml" probe);
  Alcotest.(check bool) "the engine owns the probe" false
    (flags "era-per-node" "lib/core/reclaimer.ml" probe);
  Alcotest.(check bool) "the definition site is exempt" false
    (flags "era-per-node" "lib/core/id_set.ml" probe);
  Alcotest.(check bool) "outside scheme land accepted" false
    (flags "era-per-node" "test/a.ml" probe);
  Alcotest.(check bool) "unrelated scheme code accepted" false
    (flags "era-per-node" "lib/baselines/hazard_eras.ml" "let e = Id_set.mem snap n.id")

let fence_free_read () =
  let hp = "lib/core/hazard_ptr_pop.ml" in
  let fenced =
    "let rec read ctx slot addr proj =\n  let v = Atomic.get addr in\n\
    \  Atomic.set ctx.srow.(slot) (proj v).Heap.id;\n\
    \  if Atomic.get ctx.pending = 1 then Softsignal.poll ctx.port;\n\
    \  if Atomic.get addr == v then v else read ctx slot addr proj\n"
  in
  let plain =
    "let rec read ctx slot addr proj =\n  let v = Atomic.get addr in\n\
    \  Array.unsafe_set ctx.rows (ctx.base + slot) (proj v).Heap.id;\n\
    \  Softsignal.poll ctx.port;\n\
    \  if Atomic.get addr == v then v else read ctx slot addr proj\n\n\
     let end_op ctx = Atomic.set ctx.my_epoch max_int\n"
  in
  Alcotest.(check (list (pair string int)))
    "seq-cst store in read flagged at its line" [ ("fence-free-read", 3) ] (rules_of hp fenced);
  Alcotest.(check (list (pair string int)))
    "plain store passes; writes outside read are free" [] (rules_of hp plain);
  Alcotest.(check bool) "a renamed read is a finding" true
    (flags "fence-free-read" hp "let rec read_protected ctx = ctx\n");
  let poll body = "let poll p =\n" ^ body ^ "  if Atomic.get p.my_pending = 1 then\n\
                                         \    Atomic.set p.my_pending 0\n" in
  Alcotest.(check bool) "exchange before the pending check flagged" true
    (flags "fence-free-read" "lib/runtime/softsignal.ml"
       (poll "  Atomic.set p.my_heartbeat (Atomic.get p.my_heartbeat + 1);\n"));
  Alcotest.(check bool) "writes after the pending check accepted" false
    (flags "fence-free-read" "lib/runtime/softsignal.ml"
       (poll "  Array.unsafe_set p.hb p.hb_at (Array.unsafe_get p.hb p.hb_at + 1);\n"));
  Alcotest.(check bool) "other schemes unscoped" false
    (flags "fence-free-read" "lib/baselines/hp.ml" fenced);
  let deaf =
    "let rec read ctx slot addr proj =\n  let v = Atomic.get addr in\n\
    \  Array.unsafe_set ctx.rows (ctx.base + slot) (proj v).Heap.id;\n\
    \  if Atomic.get addr == v then v else read ctx slot addr proj\n"
  in
  Alcotest.(check (list (pair string int)))
    "a guarded read without a poll flagged at its definition" [ ("fence-free-read", 1) ]
    (rules_of hp deaf);
  Alcotest.(check (list (pair string int)))
    "he-pop: read delegates, read_from must deliver" [ ("fence-free-read", 3) ]
    (rules_of "lib/core/hazard_era_pop.ml"
       ("let read ctx slot addr proj = read_from ctx slot addr proj 0\n\n"
      ^ "let rec read_from ctx slot addr proj e =\n  ignore e;\n  Atomic.get addr\n"));
  let nbr = "lib/baselines/nbr.ml" in
  let nbr_read body =
    "let read ctx _slot addr _proj =\n  let v = Atomic.get addr in\n" ^ body
    ^ "  if Atomic.get ctx.pending = 1 then Softsignal.poll ctx.port;\n  v\n\n\
       let enter_write_phase ctx nodes =\n  Atomic.set ctx.slot 7;\n\
      \  if Atomic.get ctx.pending = 1 then Softsignal.poll ctx.port\n"
  in
  Alcotest.(check (list (pair string int)))
    "an NBR read with Atomic.set flagged" [ ("fence-free-read", 3) ]
    (rules_of nbr (nbr_read "  Atomic.set ctx.flag 1;\n"));
  Alcotest.(check (list (pair string int)))
    "NBR: fences outside read are free" [] (rules_of nbr (nbr_read ""));
  Alcotest.(check bool) "NBR: a deaf write-phase entry flagged" true
    (flags "fence-free-read" nbr
       "let read ctx _slot addr _proj =\n  Softsignal.poll ctx.port;\n  Atomic.get addr\n\n\
        let enter_write_phase ctx nodes = ignore nodes\n")

let diagnostics_have_positions () =
  match L.check_source ~path:"lib/a.ml" "let a = 1\nlet b = Obj.magic a\n" with
  | [ d ] ->
      Alcotest.(check int) "line" 2 d.L.line;
      Alcotest.(check string) "file" "lib/a.ml" d.L.file;
      Alcotest.(check string) "format" "lib/a.ml:2: [obj-magic]"
        (String.sub (L.format_diagnostic d) 0 23)
  | ds -> Alcotest.failf "expected exactly one diagnostic, got %d" (List.length ds)

let parse_allow () =
  Alcotest.(check (list (pair string string)))
    "pairs"
    [ ("direct-free", "test/test_heap.ml"); ("missing-mli", "lib/core/smr.ml") ]
    (L.parse_allow
       "; comment\n((direct-free test/test_heap.ml) ; why\n (missing-mli lib/core/smr.ml))\n");
  Alcotest.(check bool) "dangling token rejected" true
    (match L.parse_allow "(direct-free)" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Tree-level checks need a real directory: build a tiny fake repo. *)
let with_fake_repo f =
  let root = Filename.temp_file "smrlint" "" in
  Sys.remove root;
  Unix.mkdir root 0o755;
  Unix.mkdir (Filename.concat root "lib") 0o755;
  let write rel contents =
    let oc = open_out (Filename.concat root rel) in
    output_string oc contents;
    close_out oc
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat (Filename.concat root "lib") e))
        (Sys.readdir (Filename.concat root "lib"));
      Unix.rmdir (Filename.concat root "lib");
      Unix.rmdir root)
    (fun () -> f root write)

let missing_mli () =
  with_fake_repo (fun root write ->
      write "lib/bare.ml" "let x = 1\n";
      write "lib/sealed.ml" "let x = 1\n";
      write "lib/sealed.mli" "val x : int\n";
      write "lib/thing_intf.ml" "module type T = sig end\n";
      let diags, notes = L.check_tree ~root ~allow:[] in
      Alcotest.(check (list (pair string string)))
        "only the bare module is flagged"
        [ ("missing-mli", "lib/bare.ml") ]
        (List.map (fun d -> (d.L.rule, d.L.file)) diags);
      Alcotest.(check (list string)) "no notes" [] notes)

let allowlist_filters () =
  with_fake_repo (fun root write ->
      write "lib/bare.ml" "let x = 1\n";
      write "lib/bare.mli" "val x : int\n";
      let allow =
        [ ("missing-mli", "lib/bare.ml") (* stale: bare.mli exists now *) ]
      in
      let diags, notes = L.check_tree ~root ~allow in
      Alcotest.(check int) "clean tree" 0 (List.length diags);
      Alcotest.(check int) "stale allow entry noted" 1 (List.length notes))

(* Every listed call fires in a structure; the shell that owns them, a
   structure's algorithm calls, and code outside lib/dslib do not. *)
let ds_plumbing () =
  List.iter
    (fun src ->
      Alcotest.(check bool) src true (flags "ds-plumbing" "lib/dslib/hm_list.ml" src))
    [
      "let register s ~tid = T.register s.base.smr ~tid";
      "let deregister ctx = T.deregister ctx.h";
      "let flush ctx = T.flush ctx.h";
      "let smr_stats s = T.stats s.base.smr";
      "let smr_unreclaimed s = T.unreclaimed s.base.smr";
      "let smr_violations s = T.violation_breakdown s.base.smr";
      "let heap_live s = Heap.live_nodes s.base.heap";
      "let heap_uaf s = Pop_sim.Heap.uaf_count s.base.heap";
      "let heap_double_free s = Heap.double_free_count s.base.heap";
    ];
  let src = "let flush ctx = T.flush ctx.h" in
  Alcotest.(check bool) "algorithm calls accepted" false
    (flags "ds-plumbing" "lib/dslib/skip_list.ml" "let n = T.alloc w in T.retire w victim");
  Alcotest.(check bool) "longer names accepted" false
    (flags "ds-plumbing" "lib/dslib/a.ml" "let f ctx = T.flush_all ctx.h");
  Alcotest.(check bool) "the shell is exempt" false
    (flags "ds-plumbing" "lib/dslib/ds_common.ml" src);
  Alcotest.(check bool) "interfaces are exempt" false (flags "ds-plumbing" "lib/dslib/a.mli" src);
  Alcotest.(check bool) "the harness is exempt" false
    (flags "ds-plumbing" "lib/harness/runner.ml" src);
  Alcotest.(check bool) "schemes are exempt" false (flags "ds-plumbing" "lib/core/hp_family.ml" src)

let case name f = Alcotest.test_case name `Quick f

let suite =
  [
    case "strip: comments, strings, chars" strip_basics;
    case "strip hides tokens from rules" strip_hides_tokens;
    case "rule: obj-magic" obj_magic;
    case "rule: poly-compare" poly_compare;
    case "rule: node-eq heuristic" node_eq;
    case "rule: direct-free scoping" direct_free;
    case "rule: heap-free-loop scoping" heap_free_loop;
    case "rule: raw-smr-in-dslib scoping" raw_smr;
    case "rule: era-per-node scoping" era_per_node;
    case "rule: ds-plumbing scoping" ds_plumbing;
    case "rule: fence-free-read scoping" fence_free_read;
    case "diagnostics carry file:line" diagnostics_have_positions;
    case "allow.sexp parsing" parse_allow;
    case "rule: missing-mli over a tree" missing_mli;
    case "allowlist filtering and stale notes" allowlist_filters;
  ]
