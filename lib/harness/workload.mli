(** Operation mixes and key generation for benchmark cells. *)

type mix = { ins_pct : int; del_pct : int }
(** Percentages of inserts and deletes; the rest are contains. *)

val update_heavy : mix
(** 50% inserts, 50% deletes (paper Figures 1–2). *)

val read_heavy : mix
(** 5% inserts, 5% deletes, 90% contains (paper Figure 3). *)

val read_only : mix

val validate : mix -> unit

type op = Insert of int | Delete of int | Contains of int

val gen : Pop_runtime.Rng.t -> mix -> key_range:int -> op
(** Draw one operation with a uniform key. *)

val prefill_keys : key_range:int -> int list
(** The deterministic keys used to prefill a structure to half its key
    range (every even key, shuffled), matching the paper's
    prefill-to-half setup. *)

(** {1 KV-service workload}

    A memcached-style front-end over a SET: get/set/cas/delete with
    Zipfian key popularity and, in the runner, an open-loop arrival
    schedule. *)

type kv_op =
  | Get of int  (** Read ([contains]). *)
  | Set of int  (** Blind write ([insert]). *)
  | Cas of int  (** Read-modify-write: read, then replace or insert. *)
  | Remove of int  (** Delete. *)

type kv_mix = { get_pct : int; set_pct : int; cas_pct : int }
(** Percentages of gets, sets and cas; the rest are removes. *)

val kv_default : kv_mix
(** 90% get / 6% set / 2% cas / 2% remove — YCSB-B-shaped with a small
    read-modify-write slice. *)

val validate_kv : kv_mix -> unit

type zipf
(** Precomputed constants for an O(1) Zipfian rank sampler (Gray et
    al., SIGMOD '94 — the YCSB generator). *)

val zipf : n:int -> theta:float -> zipf
(** [zipf ~n ~theta] prepares a sampler over ranks [0, n) where rank
    [r] has probability proportional to [1/(r+1)^theta]. O(n)
    construction, O(1) per draw. [theta] must lie in (0, 1);
    the YCSB default is 0.99. *)

val zipf_draw : zipf -> Pop_runtime.Rng.t -> int
(** Draw a rank in [0, n): rank 0 is the most popular. Deterministic
    for a given generator state. *)

type keygen = Uniform | Zipfian of zipf

val keygen : key_range:int -> theta:float -> keygen
(** [Zipfian] with the given [theta] when [theta > 0.], else
    [Uniform]. *)

val gen_kv : Pop_runtime.Rng.t -> kv_mix -> keygen -> key_range:int -> kv_op
(** Draw one KV operation. *)

val exp_interval : Pop_runtime.Rng.t -> rate:float -> float
(** One exponential inter-arrival gap in seconds for a Poisson arrival
    process of [rate] arrivals/second. Always finite and non-negative;
    [rate] must be positive. *)
