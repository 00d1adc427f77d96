(** Runtime selection of data structure × reclamation algorithm. *)

type ds_kind = HML | LL | HMHT | DGT | ABT | SL

type smr_kind =
  | NR
  | HP
  | HPASYM
  | HE
  | EBR
  | IBR
  | NBR
  | HPPOP
  | HEPOP
  | EPOCHPOP
  | HYALINE1  (** Hyaline-1 batch refcounts; also parsed from ["hyaline"]. *)
  | HYALINE1S  (** Hyaline-1S: Hyaline-1 + the robust birth-era guard. *)
  | CADENCE
  | UNSAFE

val all_ds : ds_kind list
(** The paper's five benchmark structures (figures use exactly these). *)

val all_ds_ext : ds_kind list
(** [all_ds] plus the extension structures (the skip list). *)

val all_smr : smr_kind list
(** Every safe algorithm (everything except {!UNSAFE}). *)

val paper_smrs : smr_kind list
(** The algorithm set of the paper's main figures (no Hyaline/Crystalline,
    no UNSAFE). *)

val ds_name : ds_kind -> string

val smr_name : smr_kind -> string

val ds_of_string : string -> ds_kind option

val smr_of_string : string -> smr_kind option

val smr_module : smr_kind -> (module Pop_core.Smr.S)
(** The raw, untyped scheme. Scheme-internal tools use this; data
    structures get the scheme through the {!Pop_core.Smr_typed}
    compile-time typestate facade instead, sanitized or not
    ({!set_module}). *)

val set_module : ?sanitize:bool -> ds_kind -> smr_kind -> (module Pop_ds.Set_intf.SET)
(** The structure over the scheme behind the {!Pop_core.Smr_typed}
    facade. With [~sanitize:true], the sanitizer sits between the facade
    and the scheme ({!Pop_check.Smr_check.Typed}), so the residual
    dynamic checks still run and per-category tallies surface through
    [Smr_typed.S.violation_breakdown]. *)
