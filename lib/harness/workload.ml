open Pop_runtime

type mix = { ins_pct : int; del_pct : int }

let update_heavy = { ins_pct = 50; del_pct = 50 }

let read_heavy = { ins_pct = 5; del_pct = 5 }

let read_only = { ins_pct = 0; del_pct = 0 }

let validate m =
  if m.ins_pct < 0 || m.del_pct < 0 || m.ins_pct + m.del_pct > 100 then
    invalid_arg "Workload.mix: percentages must be non-negative and sum to at most 100"

type op = Insert of int | Delete of int | Contains of int

let gen rng mix ~key_range =
  let key = Rng.int rng key_range in
  let r = Rng.int rng 100 in
  if r < mix.ins_pct then Insert key
  else if r < mix.ins_pct + mix.del_pct then Delete key
  else Contains key

type load =
  | Mix of mix
  | Long_running_reads
  | Kv of { zipf_theta : float; arrival_rate : float }

(* ------------------------------------------------------------------ *)
(* KV-service front-end: memcached-style get/set/cas/delete mix over a
   SET, with Zipfian key popularity and an open-loop arrival schedule. *)

type kv_op = Get of int | Set of int | Cas of int | Remove of int

(* Zipfian rank sampler after Gray et al. ("Quickly generating
   billion-record synthetic databases", SIGMOD '94) — the same
   closed-form inverse CDF YCSB's ZipfianGenerator uses. Ranks are
   0-based; rank r is drawn with probability proportional to
   1/(r+1)^theta. The constants cost O(n) once at construction; each
   draw is O(1). *)
type zipf = {
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
  half_pow : float; (* (1 + 0.5^theta) threshold numerator, hoisted *)
}

let zipf ~n ~theta =
  if n <= 0 then invalid_arg "Workload.zipf: n must be positive";
  if theta <= 0.0 || theta >= 1.0 then
    invalid_arg "Workload.zipf: theta must lie in (0, 1)";
  let zeta m =
    let s = ref 0.0 in
    for i = 1 to m do
      s := !s +. (1.0 /. Float.pow (float_of_int i) theta)
    done;
    !s
  in
  let zetan = zeta n in
  let zeta2 = zeta 2 in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
    /. (1.0 -. (zeta2 /. zetan))
  in
  { n; theta; alpha; zetan; eta; half_pow = 1.0 +. Float.pow 0.5 theta }

let zipf_draw z rng =
  let u = Rng.float rng 1.0 in
  let uz = u *. z.zetan in
  if uz < 1.0 then 0
  else if uz < z.half_pow then 1
  else begin
    let r =
      int_of_float
        (float_of_int z.n *. Float.pow ((z.eta *. u) -. z.eta +. 1.0) z.alpha)
    in
    (* Float round-off can land exactly on n; clamp into [0, n). *)
    if r >= z.n then z.n - 1 else if r < 0 then 0 else r
  end

type keygen = Uniform | Zipfian of zipf

let keygen ~key_range ~theta =
  if theta > 0.0 then Zipfian (zipf ~n:key_range ~theta) else Uniform

(* Rank r is the r-th most popular *rank*; scatter it through the
   stateless hash so hot keys are spread across the key space (and
   across hash-table buckets / skip-list towers) instead of clustering
   at 0, 1, 2, ... *)
let draw_key kg rng ~key_range =
  match kg with
  | Uniform -> Rng.int rng key_range
  | Zipfian z -> Rng.hash (zipf_draw z rng) mod key_range

(* Roughly YCSB-B-shaped with a small read-modify-write slice:
   90% get / 6% set / 2% cas / 2% delete. *)
let gen_kv rng kg ~key_range =
  let key = draw_key kg rng ~key_range in
  let r = Rng.int rng 100 in
  if r < 90 then Get key else if r < 96 then Set key else if r < 98 then Cas key else Remove key

(* Exponential inter-arrival draw for the open-loop schedule: with [u]
   uniform in [0,1), [-log1p (-u) / rate] is Exp(rate) — log1p keeps
   precision for small u and the half-open draw keeps the argument of
   log1p strictly above -1, so the result is always finite. *)
let exp_interval rng ~rate =
  if rate <= 0.0 then invalid_arg "Workload.exp_interval: rate must be positive";
  -.Float.log1p (-.Rng.float rng 1.0) /. rate

(* Even keys, deterministically shuffled: ascending-order prefill would
   degenerate the (unbalanced) external BST into a linked list. *)
let prefill_keys ~key_range =
  let n = (key_range + 1) / 2 in
  let keys = Array.init n (fun i -> 2 * i) in
  let rng = Rng.make 0x5eed in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- t
  done;
  Array.to_list keys
