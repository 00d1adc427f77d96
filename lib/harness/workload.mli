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

(** {1 Loads}

    The three shapes a benchmark cell can drive. *)

type load =
  | Mix of mix  (** Every thread draws from the mix with uniform keys. *)
  | Long_running_reads
      (** Paper Figure 4 (section 5.1.2): the first half of the threads
          run full-range contains only; the rest insert and delete, half
          and half, keys in [\[0, 64)] near the head of the structure. *)
  | Kv of { zipf_theta : float; arrival_rate : float }
      (** The latency-instrumented KV service ({!gen_kv}). [zipf_theta]
          is the key-popularity skew ([0.99] = YCSB default; [<= 0.]
          keeps keys uniform). [arrival_rate] is the aggregate open-loop
          rate in ops/second, split evenly across workers as independent
          Poisson streams; latency then runs from the {e scheduled}
          arrival to completion, so queueing delay counts. [0.] = closed
          loop (latency = service time). *)

(** {1 KV-service workload}

    A memcached-style front-end over a SET: get/set/cas/delete with
    Zipfian key popularity and, in the runner, an open-loop arrival
    schedule. *)

type kv_op =
  | Get of int  (** Read ([contains]). *)
  | Set of int  (** Blind write ([insert]). *)
  | Cas of int  (** Read-modify-write: read, then replace or insert. *)
  | Remove of int  (** Delete. *)

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

val gen_kv : Pop_runtime.Rng.t -> keygen -> key_range:int -> kv_op
(** Draw one KV operation: 90% get / 6% set / 2% cas / 2% remove,
    YCSB-B-shaped with a small read-modify-write slice. *)

val exp_interval : Pop_runtime.Rng.t -> rate:float -> float
(** One exponential inter-arrival gap in seconds for a Poisson arrival
    process of [rate] arrivals/second. Always finite and non-negative;
    [rate] must be positive. *)
