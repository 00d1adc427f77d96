open Pop_runtime

let set_handler port res eng hs =
  let tid = Softsignal.tid port in
  Softsignal.set_handler port (fun () ->
      Reservations.publish res ~tid;
      Reclaimer.invalidate eng;
      Handshake.ack hs ~tid)

let collect res hs ~port scratch =
  let timeouts = Handshake.round hs ~port in
  Reservations.publish res ~tid:(Softsignal.tid port);
  let k = ref (Reservations.collect_shared res scratch) in
  (* A timed-out peer never ran its handler, so its shared row is stale. *)
  if timeouts > 0 then
    for tid = 0 to Reservations.max_threads res - 1 do
      if Handshake.timed_out hs ~port tid then
        k := Reservations.append_local_row res ~tid ~into:scratch ~pos:!k
    done;
  !k
