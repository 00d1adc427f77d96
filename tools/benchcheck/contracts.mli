(** The tier-1 JSON contracts: what each smoke run's output must look
    like, as named checks over {!Pop_harness.Json.t}. [benchcheck]
    applies one to a file; the test suite links them to show that each
    rejects a broken document. *)

exception Violation of string
(** The message starts with the JSON path of the offending value
    ([$[0].mops], [$.pass_cost[2].freed_per_pass]). *)

type t = {
  name : string;  (** The [benchcheck] argument. *)
  check : Pop_harness.Json.t -> string;
      (** A one-line summary on success; raises {!Violation} otherwise. *)
}

val all : t list
(** [json], [churn], [seg], [kv], [alloc], [tournament]. *)

val find : string -> t option

val run : t -> Pop_harness.Json.t -> (string, string) result
(** [check] with {!Violation} as [Error]. *)
