module Make (S : Pop_core.Smr.S) = struct
  let name = S.name

  type 'a t = { g : 'a S.t; hub : Pop_runtime.Softsignal.t }

  type 'a tctx = { c : 'a S.tctx; tr : Trace.local; t : 'a t }

  let create cfg hub heap = { g = S.create cfg hub heap; hub }

  let register t ~tid = { c = S.register t.g ~tid; tr = Trace.local tid; t }

  let start_op x =
    if x.tr.sampled then begin
      let t0 = Trace.now () in
      S.start_op x.c;
      Trace.child x.tr Start_op t0
    end
    else S.start_op x.c

  let end_op x =
    if x.tr.sampled then begin
      let t0 = Trace.now () in
      S.end_op x.c;
      Trace.child x.tr End_op t0
    end
    else S.end_op x.c

  let read x slot cell proj =
    let tr = x.tr in
    tr.reads <- tr.reads + 1;
    if tr.sampled then begin
      let t0 = Trace.now () in
      let v = S.read x.c slot cell proj in
      Trace.child tr Read t0;
      v
    end
    else S.read x.c slot cell proj

  let check x n = S.check x.c n

  let alloc x =
    let tr = x.tr in
    tr.allocs <- tr.allocs + 1;
    if tr.sampled then begin
      let t0 = Trace.now () in
      let n = S.alloc x.c in
      Trace.child tr Alloc t0;
      n
    end
    else S.alloc x.c

  (* A pass runs inside the [retire] that tips the threshold: see
     [Trace.retire] for how one is told from the fast path. *)
  let retire x n =
    let hub = x.t.hub and tid = x.tr.tid in
    let hb = Pop_runtime.Softsignal.heartbeat hub tid and garbage = S.unreclaimed x.t.g in
    let t0 = Trace.now () in
    S.retire x.c n;
    Trace.retire x.tr t0
      ~engine_work:
        (Pop_runtime.Softsignal.heartbeat hub tid <> hb || S.unreclaimed x.t.g <= garbage)

  let free_unpublished x n = S.free_unpublished x.c n

  let enter_write_phase x nodes = S.enter_write_phase x.c nodes

  let poll x = S.poll x.c

  let flush x = S.flush x.c

  let deregister x = S.deregister x.c

  let unreclaimed t = S.unreclaimed t.g

  let stats t = S.stats t.g
end
