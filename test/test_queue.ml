(** Michael-Scott queue: sequential FIFO semantics against a model,
    behaviour under every reclamation algorithm, and concurrent
    producer/consumer runs checked for loss, duplication and
    per-producer order. *)

open Tu
open Pop_ds

module Make_rig (Q : Queue_intf.QUEUE) = struct
  let fresh ?(reclaim_freq = 8) () =
    let scfg =
      {
        (Pop_core.Smr_config.default ~max_threads:4 ()) with
        reclaim_freq;
      }
    in
    let hub = Pop_runtime.Softsignal.create ~max_threads:4 in
    let q = Q.create scfg ~hub in
    (q, Q.register q ~tid:0)
end

module Q_epop = Ms_queue.Make (Pop_core.Smr_typed.Of (Pop_core.Epoch_pop))
module Q_hpp = Ms_queue.Make (Pop_core.Smr_typed.Of (Pop_core.Hazard_ptr_pop))
module Q_hp = Ms_queue.Make (Pop_core.Smr_typed.Of (Pop_baselines.Hp))
module Q_nbr = Ms_queue.Make (Pop_core.Smr_typed.Of (Pop_baselines.Nbr))

let fifo_basics () =
  let module G = Make_rig (Q_epop) in
  let q, ctx = G.fresh () in
  Alcotest.(check (option int)) "empty" None (Q_epop.dequeue ctx);
  Q_epop.enqueue ctx 1;
  Q_epop.enqueue ctx 2;
  Q_epop.enqueue ctx 3;
  Alcotest.(check int) "length" 3 (Q_epop.length_seq q);
  Alcotest.(check (list int)) "contents" [ 1; 2; 3 ] (Q_epop.to_list_seq q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Q_epop.dequeue ctx);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Q_epop.dequeue ctx);
  Q_epop.enqueue ctx 4;
  Alcotest.(check (option int)) "fifo 3" (Some 3) (Q_epop.dequeue ctx);
  Alcotest.(check (option int)) "fifo 4" (Some 4) (Q_epop.dequeue ctx);
  Alcotest.(check (option int)) "empty again" None (Q_epop.dequeue ctx);
  Q_epop.check_invariants q

let queue_model =
  QCheck2.Test.make ~name:"msq: random ops match Queue model" ~count:200
    QCheck2.Gen.(list_size (int_range 0 300) (option (int_range 0 1000)))
    (fun script ->
      let module G = Make_rig (Q_epop) in
      let q, ctx = G.fresh () in
      let model = Queue.create () in
      List.iter
        (fun op ->
          match op with
          | Some v ->
              Q_epop.enqueue ctx v;
              Queue.add v model
          | None ->
              let got = Q_epop.dequeue ctx in
              let expect = Queue.take_opt model in
              if got <> expect then failwith "dequeue diverged from model")
        script;
      Q_epop.check_invariants q;
      Q_epop.to_list_seq q = List.of_seq (Queue.to_seq model)
      && Q_epop.heap_uaf q = 0)

let reclamation_recycles () =
  let module G = Make_rig (Q_epop) in
  let q, ctx = G.fresh () in
  for v = 1 to 1000 do
    Q_epop.enqueue ctx v;
    ignore (Q_epop.dequeue ctx)
  done;
  Q_epop.flush ctx;
  let stats = Q_epop.smr_stats q in
  Alcotest.(check int) "dummies retired" 1000 stats.Pop_core.Smr_stats.retired;
  Alcotest.(check bool) "nearly all freed" true (stats.Pop_core.Smr_stats.freed >= 990);
  Alcotest.(check bool) "heap stays bounded" true (Q_epop.heap_live q < 64)

(* Concurrent producers and consumers; values are tagged with the
   producer id so per-producer FIFO order is checkable. *)
let concurrent_producers_consumers (module Q : Queue_intf.QUEUE) () =
  let per_producer = 3_000 in
  let producers = 2 and consumers = 2 in
  let scfg =
    {
      (Pop_core.Smr_config.default ~max_threads:(producers + consumers) ()) with
      reclaim_freq = 32;
    }
  in
  let hub = Pop_runtime.Softsignal.create ~max_threads:(producers + consumers) in
  let q = Q.create scfg ~hub in
  let consumed = Atomic.make 0 in
  let total = producers * per_producer in
  let producer tid () =
    let ctx = Q.register q ~tid in
    for i = 0 to per_producer - 1 do
      Q.enqueue ctx ((tid * 1_000_000) + i);
      Q.poll ctx
    done;
    Q.flush ctx;
    Q.deregister ctx;
    []
  in
  let consumer tid () =
    let ctx = Q.register q ~tid in
    let got = ref [] in
    while Atomic.get consumed < total do
      match Q.dequeue ctx with
      | Some v ->
          Atomic.incr consumed;
          got := v :: !got;
          Q.poll ctx
      | None -> Q.poll ctx
    done;
    Q.flush ctx;
    Q.deregister ctx;
    !got
  in
  let doms =
    List.init producers (fun tid -> Domain.spawn (producer tid))
    @ List.init consumers (fun tid -> Domain.spawn (consumer (producers + tid)))
  in
  let all = List.concat_map Domain.join doms in
  Alcotest.(check int) "no loss, no duplication" total (List.length all);
  let sorted = List.sort Int.compare all in
  let expected =
    List.sort Int.compare
      (List.concat_map
         (fun tid -> List.init per_producer (fun i -> (tid * 1_000_000) + i))
         (List.init producers Fun.id))
  in
  Alcotest.(check bool) "exact multiset" true (sorted = expected);
  (* Per-producer order: within each consumer's stream, values from one
     producer must appear in increasing order; merge all consumers is
     not ordered, so check the global dequeue order is unavailable —
     instead verify each consumer's local stream is per-producer
     monotone (a FIFO queue guarantee). *)
  Alcotest.(check int) "queue drained" 0 (Q.length_seq q);
  Alcotest.(check int) "no UAF" 0 (Q.heap_uaf q);
  Alcotest.(check int) "no double free" 0 (Q.heap_double_free q);
  Q.check_invariants q

(* Per-consumer monotonicity needs the consumer-local streams; rerun
   with a single consumer so the global order is exactly dequeue order. *)
let single_consumer_order (module Q : Queue_intf.QUEUE) () =
  let per_producer = 2_000 in
  let producers = 2 in
  let scfg =
    {
      (Pop_core.Smr_config.default ~max_threads:(producers + 1) ()) with
      reclaim_freq = 32;
    }
  in
  let hub = Pop_runtime.Softsignal.create ~max_threads:(producers + 1) in
  let q = Q.create scfg ~hub in
  let producer tid () =
    let ctx = Q.register q ~tid in
    for i = 0 to per_producer - 1 do
      Q.enqueue ctx ((tid * 1_000_000) + i);
      Q.poll ctx
    done;
    Q.flush ctx;
    Q.deregister ctx
  in
  let doms = List.init producers (fun tid -> Domain.spawn (producer tid)) in
  let ctx = Q.register q ~tid:producers in
  let total = producers * per_producer in
  let got = ref [] in
  let n = ref 0 in
  while !n < total do
    match Q.dequeue ctx with
    | Some v ->
        incr n;
        got := v :: !got;
        Q.poll ctx
    | None -> Q.poll ctx
  done;
  List.iter Domain.join doms;
  Q.flush ctx;
  Q.deregister ctx;
  let stream = List.rev !got in
  let last = Array.make producers (-1) in
  List.iter
    (fun v ->
      let tid = v / 1_000_000 and i = v mod 1_000_000 in
      if i <= last.(tid) then Alcotest.failf "producer %d order violated at %d" tid i;
      last.(tid) <- i)
    stream;
  Alcotest.(check int) "no UAF" 0 (Q.heap_uaf q)

let works_with_every_smr =
  List.map
    (fun (nm, (module R : Pop_core.Smr.S)) ->
      case (Printf.sprintf "msq/%s: smoke" nm) (fun () ->
          let module Q = Ms_queue.Make (Pop_core.Smr_typed.Of (R)) in
          let module G = Make_rig (Q) in
          let q, ctx = G.fresh () in
          for v = 1 to 200 do
            Q.enqueue ctx v
          done;
          for v = 1 to 200 do
            if Q.dequeue ctx <> Some v then Alcotest.failf "fifo violated at %d" v
          done;
          Alcotest.(check (option int)) "drained" None (Q.dequeue ctx);
          Q.flush ctx;
          Q.check_invariants q;
          Alcotest.(check int) "no UAF" 0 (Q.heap_uaf q)))
    all_safe_smrs

let suite =
  works_with_every_smr
  @ [
      case "msq: fifo basics" fifo_basics;
      QCheck_alcotest.to_alcotest queue_model;
      case "msq: reclamation recycles dummies" reclamation_recycles;
      case "msq/epoch-pop: concurrent producers+consumers"
        (concurrent_producers_consumers (module Q_epop));
      case "msq/hp-pop: concurrent producers+consumers"
        (concurrent_producers_consumers (module Q_hpp));
      case "msq/hp: concurrent producers+consumers"
        (concurrent_producers_consumers (module Q_hp));
      case "msq/nbr: concurrent producers+consumers"
        (concurrent_producers_consumers (module Q_nbr));
      case "msq/epoch-pop: single-consumer per-producer order"
        (single_consumer_order (module Q_epop));
      case "msq/hp-pop: single-consumer per-producer order"
        (single_consumer_order (module Q_hpp));
    ]
