type t = {
  max_threads : int;
  max_hp : int;
  reclaim_freq : int;
  epoch_freq : int;
  pop_mult : int;
  ping_timeout_spins : int;
  segment_size : int;
  suspect_after : int;
}

let default ?(max_threads = 8) () =
  {
    max_threads;
    max_hp = 8;
    reclaim_freq = 512;
    epoch_freq = 32;
    pop_mult = 1;
    ping_timeout_spins = 64;
    segment_size = 64;
    suspect_after = 3;
  }

let validate t =
  if t.max_threads <= 0 then invalid_arg "Smr_config: max_threads must be positive";
  if t.max_hp <= 0 then invalid_arg "Smr_config: max_hp must be positive";
  if t.reclaim_freq <= 0 then invalid_arg "Smr_config: reclaim_freq must be positive";
  if t.epoch_freq <= 0 then invalid_arg "Smr_config: epoch_freq must be positive";
  if t.pop_mult < 1 then invalid_arg "Smr_config: pop_mult must be at least 1";
  if t.ping_timeout_spins <= 0 then
    invalid_arg "Smr_config: ping_timeout_spins must be positive";
  if t.segment_size <= 0 then invalid_arg "Smr_config: segment_size must be positive";
  if t.suspect_after <= 0 then invalid_arg "Smr_config: suspect_after must be positive"
