(** The [smrlint] rule engine: a lexical/structural pass over OCaml
    sources, shared by the command-line tool and the test suite.

    Sources are stripped of comments (nested), string literals and
    character literals — preserving line structure — and then matched
    against a declarative rule table:

    - [obj-magic] — no [Obj.magic], anywhere;
    - [poly-compare] — no bare (or [Stdlib.]/[Poly.]-qualified)
      polymorphic [compare]; typed comparators only;
    - [node-eq] — no structural [=]/[<>] on the result of a protected
      node read (heuristic: [Atomic.get] followed by a bare comparison
      in a phrase mentioning a node link field);
    - [direct-free] — no [Heap.free] outside the reclamation schemes
      ([lib/core], [lib/simheap], [lib/baselines]);
    - [raw-smr-in-dslib] — no reference to the raw [Smr] module (the
      untyped scheme interface) from [lib/]/[examples/] code outside
      scheme-land, [lib/check] and the [lib/harness/dispatch] bridge;
      everything else consumes {!Pop_core.Smr_typed.S};
    - [heap-free-loop] — no per-node [Heap.free] issued from inside a
      loop (a [for]/[while] body, or an [iter]/[map]/[fold]-style
      traversal on the same line) in [lib/] outside [lib/simheap]:
      block contents drained by the engine go back through
      [Heap.free_block] in one call, preserving the allocator's
      block-granularity hand-off;
    - [fence-free-read] — no sequentially consistent store or
      read-modify-write inside the protected read path: the
      [read]/[read_from] bodies of [hazard_ptr_pop],
      [hazard_era_pop] and [epoch_pop] in [lib/core], NBR's [read], and
      [Softsignal.poll] before its pending check; and every delivery
      point (those POP reads, NBR's [read] and [enter_write_phase],
      hp-asym's and cadence's [read]) contains the [Softsignal.poll]
      call; a guarded function that is
      missing is a finding;
    - [missing-mli] — every [lib/] module except [*_intf.ml] carries an
      interface file.

    Findings can be grandfathered in [tools/lint/allow.sexp], a flat
    list of [(rule path)] pairs. *)

type diagnostic = { file : string; line : int; rule : string; message : string }

val format_diagnostic : diagnostic -> string
(** ["file:line: [rule] message"]. *)

val strip : string -> string
(** Replace comments, string literals and char literals with spaces,
    byte for byte; newlines survive, so line/column structure does. *)

val check_source : path:string -> string -> diagnostic list
(** Run every line-level rule that applies to [path] (repo-relative,
    '/'-separated) over the given contents, in source order. *)

val parse_allow : string -> (string * string) list
(** Parse [allow.sexp] contents into [(rule, path)] pairs. Raises
    [Invalid_argument] on an odd token count. *)

val check_tree :
  root:string -> allow:(string * string) list -> diagnostic list * string list
(** Walk [lib bin test bench examples] under [root], run {!check_source}
    on every [.ml]/[.mli] plus the [missing-mli] rule, and drop
    allowlisted findings. Returns remaining diagnostics and notes about
    allowlist entries that no longer fire (stale entries should be
    deleted, but they do not fail the gate). *)
