open Pop_ds

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
  | HYALINE1
  | HYALINE1S
  | CADENCE
  | UNSAFE

let all_ds = [ HML; LL; HMHT; DGT; ABT ]

let all_ds_ext = all_ds @ [ SL ]

let all_smr =
  [ NR; HP; HPASYM; HE; EBR; IBR; NBR; HPPOP; HEPOP; EPOCHPOP; HYALINE1; HYALINE1S; CADENCE ]

let paper_smrs = [ NR; HP; HPASYM; HE; EBR; IBR; NBR; HPPOP; HEPOP; EPOCHPOP ]

let ds_name = function
  | HML -> "hml"
  | LL -> "ll"
  | HMHT -> "hmht"
  | DGT -> "dgt"
  | ABT -> "abt"
  | SL -> "sl"

let smr_name = function
  | NR -> "nr"
  | HP -> "hp"
  | HPASYM -> "hp-asym"
  | HE -> "he"
  | EBR -> "ebr"
  | IBR -> "ibr"
  | NBR -> "nbr"
  | HPPOP -> "hp-pop"
  | HEPOP -> "he-pop"
  | EPOCHPOP -> "epoch-pop"
  | HYALINE1 -> "hyaline-1"
  | HYALINE1S -> "hyaline-1s"
  | CADENCE -> "cadence"
  | UNSAFE -> "unsafe-free"

let ds_of_string s =
  match String.lowercase_ascii s with
  | "hml" -> Some HML
  | "ll" -> Some LL
  | "hmht" | "ht" -> Some HMHT
  | "dgt" | "bst" -> Some DGT
  | "abt" -> Some ABT
  | "sl" | "skiplist" -> Some SL
  | _ -> None

let smr_of_string s =
  match String.lowercase_ascii s with
  | "nr" -> Some NR
  | "hp" -> Some HP
  | "hp-asym" | "hpasym" -> Some HPASYM
  | "he" -> Some HE
  | "ebr" -> Some EBR
  | "ibr" -> Some IBR
  | "nbr" | "nbr+" -> Some NBR
  | "hp-pop" | "hppop" -> Some HPPOP
  | "he-pop" | "hepop" -> Some HEPOP
  | "epoch-pop" | "epochpop" -> Some EPOCHPOP
  | "hyaline-1" | "hyaline1" | "hyaline" | "crystalline" -> Some HYALINE1
  | "hyaline-1s" | "hyaline1s" -> Some HYALINE1S
  | "cadence" | "qsense" -> Some CADENCE
  | "unsafe" | "unsafe-free" -> Some UNSAFE
  | _ -> None

let base_smr_module : smr_kind -> (module Pop_core.Smr.S) = function
  | NR -> (module Pop_baselines.Nr)
  | HP -> (module Pop_baselines.Hp)
  | HPASYM -> (module Pop_baselines.Hp_asym)
  | HE -> (module Pop_baselines.Hazard_eras)
  | EBR -> (module Pop_baselines.Ebr)
  | IBR -> (module Pop_baselines.Ibr)
  | NBR -> (module Pop_baselines.Nbr)
  | HPPOP -> (module Pop_core.Hazard_ptr_pop)
  | HEPOP -> (module Pop_core.Hazard_era_pop)
  | EPOCHPOP -> (module Pop_core.Epoch_pop)
  | HYALINE1 -> (module Pop_baselines.Hyaline_one)
  | HYALINE1S -> (module Pop_baselines.Hyaline_one_s)
  | CADENCE -> (module Pop_baselines.Cadence)
  | UNSAFE -> (module Pop_baselines.Unsafe_free)

let smr_module ?(sanitize = false) kind : (module Pop_core.Smr.S) =
  let ((module S : Pop_core.Smr.S) as base) = base_smr_module kind in
  if sanitize then (module Pop_check.Smr_check.Make (S)) else base

let set_module ?(sanitize = false) ds smr : (module Set_intf.SET) =
  let (module S : Pop_core.Smr.S) = base_smr_module smr in
  let (module T : Pop_core.Smr_typed.S) =
    if sanitize then (module Pop_check.Smr_check.Typed (S)) else (module Pop_core.Smr_typed.Of (S))
  in
  match ds with
  | HML -> (module Hm_list.Make (T))
  | LL -> (module Lazy_list.Make (T))
  | HMHT -> (module Hash_table.Make (T))
  | DGT -> (module Ext_bst.Make (T))
  | ABT -> (module Ab_tree.Make (T))
  | SL -> (module Skip_list.Make (T))
