(* Tests for the parallel profiler: the central correctness claim of the
   paper's Sec. IV is that the pipeline (chunking, modulo dispatch,
   lock-free queues, redistribution, merge) produces exactly the same
   dependences as the serial profiler. *)

module Config = Ddp_core.Config
module Dep_store = Ddp_core.Dep_store

let small_cfg =
  {
    Config.default with
    slots = 1 lsl 16;
    workers = 4;
    chunk_size = 32;
    queue_capacity = 8;
    redistribution_interval = 10;
    stats_sample = 1;
  }

let dep_sets_equal a b = Dep_store.Key_set.equal (Dep_store.key_set a) (Dep_store.key_set b)

(* Serial reference with the *same* sharded signature layout as the
   parallel profiler (per-worker signatures indexed by the modulo rule):
   equality against it isolates the parallelization machinery — chunking,
   queues, domains, merge — which is exactly the paper's Sec. IV claim.
   (A monolithic serial signature hashes differently, so its collisions —
   and hence its false dependences — legitimately differ.) *)
let sharded_reference_hooks ~config deps =
  let nw = config.Config.workers in
  let slots = Config.slots_per_worker config in
  let shards =
    Array.init nw (fun _ ->
        Ddp_core.Algo.Over_signature.create
          ~store:(Ddp_core.Sig_store.create ~slots ())
          ~deps ())
  in
  let shard addr = shards.(addr mod nw) in
  {
    Ddp_minir.Event.null with
    Ddp_minir.Event.on_read =
      (fun ~addr ~loc ~var ~thread ~time ~locked:_ ->
        Ddp_core.Algo.Over_signature.on_read (shard addr) ~addr
          ~payload:(Ddp_core.Payload.pack_unsafe ~loc ~var ~thread)
          ~time);
    on_write =
      (fun ~addr ~loc ~var ~thread ~time ~locked:_ ->
        Ddp_core.Algo.Over_signature.on_write (shard addr) ~addr
          ~payload:(Ddp_core.Payload.pack_unsafe ~loc ~var ~thread)
          ~time);
    on_free =
      (fun ~base ~len ~var:_ ->
        for a = base to base + len - 1 do
          Ddp_core.Algo.Over_signature.on_free (shard a) ~addr:a
        done);
  }

(* Replay a synthetic trace into the sharded serial reference and the
   real parallel profiler. *)
let run_trace_both ~config trace =
  let ref_deps = Dep_store.create () in
  Ddp_minir.Event.replay (sharded_reference_hooks ~config ref_deps) trace;
  let par = Ddp_core.Parallel_profiler.create config in
  Ddp_core.Parallel_profiler.start par;
  Ddp_minir.Event.replay (Ddp_core.Parallel_profiler.hooks par) trace;
  let result = Ddp_core.Parallel_profiler.finish par in
  (ref_deps, result)

let mk_trace ops =
  List.mapi
    (fun i (is_write, addr, line) ->
      (* clamp: qcheck shrinkers can escape int_range bounds *)
      let addr = abs addr and line = 1 + (abs line mod 30) in
      let loc = Ddp_minir.Loc.make ~file:1 ~line in
      if is_write then
        Ddp_minir.Event.Write { addr; loc; var = 0; thread = 0; time = i; locked = false }
      else Ddp_minir.Event.Read { addr; loc; var = 0; thread = 0; time = i; locked = false })
    ops

let test_trace_equivalence_basic () =
  let trace =
    mk_trace
      [ (true, 1, 1); (false, 1, 2); (true, 2, 3); (true, 2, 4); (false, 2, 5); (true, 1, 6) ]
  in
  let serial_deps, result = run_trace_both ~config:small_cfg trace in
  (* a worker crash must fail as a crash, not as a missing partition *)
  Alcotest.(check string) "run complete" "complete" (Ddp_core.Health.to_string result.health);
  Alcotest.(check bool) "dep sets equal" true (dep_sets_equal serial_deps result.deps);
  Alcotest.(check bool) "nonempty" true (Dep_store.distinct serial_deps > 0)

let test_worker_ownership () =
  (* All events to one address land on one worker. *)
  let trace = mk_trace (List.init 500 (fun i -> (i mod 2 = 0, 42, 1 + (i mod 5)))) in
  let _, result = run_trace_both ~config:small_cfg trace in
  let busy_workers =
    Array.to_list result.per_worker_events |> List.filter (fun e -> e > 0) |> List.length
  in
  Alcotest.(check int) "single owner" 1 busy_workers

let test_events_conserved () =
  let n = 1000 in
  let trace = mk_trace (List.init n (fun i -> (i mod 3 = 0, i mod 17, 1 + (i mod 7)))) in
  let _, result = run_trace_both ~config:small_cfg trace in
  Alcotest.(check int) "all events processed" n
    (Array.fold_left ( + ) 0 result.per_worker_events)

let prop_trace_equivalence =
  QCheck.Test.make ~name:"parallel == serial on random traces" ~count:60
    QCheck.(
      list_of_size Gen.(int_range 1 400)
        (triple bool (int_range 0 40) (int_range 1 20)))
    (fun ops ->
      let trace = mk_trace ops in
      let serial_deps, result = run_trace_both ~config:small_cfg trace in
      dep_sets_equal serial_deps result.deps)

let prop_trace_equivalence_lock_based =
  QCheck.Test.make ~name:"lock-based parallel == serial on random traces" ~count:30
    QCheck.(
      list_of_size Gen.(int_range 1 300)
        (triple bool (int_range 0 40) (int_range 1 20)))
    (fun ops ->
      let trace = mk_trace ops in
      let config = { small_cfg with lock_free = false } in
      let serial_deps, result = run_trace_both ~config trace in
      dep_sets_equal serial_deps result.deps)

(* Frees routed through chunks must reach the owning worker in order. *)
let test_free_routed () =
  let l n = Ddp_minir.Loc.make ~file:1 ~line:n in
  let trace =
    [
      Ddp_minir.Event.Write { addr = 3; loc = l 1; var = 0; thread = 0; time = 0; locked = false };
      Ddp_minir.Event.Free { base = 3; len = 1; var = 0 };
      Ddp_minir.Event.Read { addr = 3; loc = l 2; var = 0; thread = 0; time = 1; locked = false };
    ]
  in
  let serial_deps, result = run_trace_both ~config:small_cfg trace in
  Alcotest.(check bool) "no RAW across free (serial)" true (Dep_store.distinct serial_deps <= 1);
  Alcotest.(check bool) "parallel agrees" true (dep_sets_equal serial_deps result.deps)

(* Redistribution under a pathologically skewed trace must not change
   results. *)
let test_redistribution_equivalence () =
  (* Hot addresses all congruent mod workers: triggers redistribution. *)
  let ops =
    List.concat_map
      (fun round ->
        List.init 40 (fun i ->
            let addr = if i < 30 then 4 * (i mod 3) else round mod 64 in
            (i mod 2 = 0, addr, 1 + (i mod 6))))
      (List.init 50 Fun.id)
  in
  let trace = mk_trace ops in
  let config = { small_cfg with redistribution_interval = 2; hot_set_size = 3 } in
  let serial_deps, result = run_trace_both ~config trace in
  Alcotest.(check bool) "redistribution happened" true (result.redistributions > 0);
  Alcotest.(check bool) "still equivalent" true (dep_sets_equal serial_deps result.deps)

let test_redistribution_off () =
  let trace = mk_trace (List.init 300 (fun i -> (i mod 2 = 0, i mod 9, 1 + (i mod 4)))) in
  let config = { small_cfg with redistribution_interval = 0 } in
  let serial_deps, result = run_trace_both ~config trace in
  Alcotest.(check int) "no redistributions" 0 result.redistributions;
  Alcotest.(check bool) "equivalent" true (dep_sets_equal serial_deps result.deps)

(* Full-program integration: the same sharded-reference comparison over
   entire workload runs. *)
let sharded_serial_reference ~config prog =
  let deps = Dep_store.create () in
  let hooks = sharded_reference_hooks ~config deps in
  let (_ : Ddp_minir.Interp.stats) = Ddp_minir.Interp.run ~hooks prog in
  deps

let workload_equivalence name =
  let w = Ddp_workloads.Registry.find name in
  let config =
    { small_cfg with slots = 1 lsl 20; chunk_size = 256; redistribution_interval = 0 }
  in
  let reference = sharded_serial_reference ~config (w.Ddp_workloads.Wl.seq ~scale:1) in
  let par =
    Ddp_core.Profiler.profile ~mode:"parallel" ~config
      (w.Ddp_workloads.Wl.seq ~scale:1)
  in
  Alcotest.(check bool)
    (name ^ ": parallel == sharded serial reference")
    true
    (dep_sets_equal reference par.deps)

let workload_cases =
  List.map
    (fun name ->
      Alcotest.test_case ("workload equivalence: " ^ name) `Slow (fun () ->
          workload_equivalence name))
    [ "is"; "mg"; "c-ray"; "streamcluster"; "tinyjpeg" ]

let suite =
  [
    Alcotest.test_case "trace equivalence basic" `Quick test_trace_equivalence_basic;
    Alcotest.test_case "worker ownership" `Quick test_worker_ownership;
    Alcotest.test_case "events conserved" `Quick test_events_conserved;
    Alcotest.test_case "free routed" `Quick test_free_routed;
    Alcotest.test_case "redistribution equivalence" `Quick test_redistribution_equivalence;
    Alcotest.test_case "redistribution off" `Quick test_redistribution_off;
    Test_seed.to_alcotest prop_trace_equivalence;
    Test_seed.to_alcotest prop_trace_equivalence_lock_based;
  ]
  @ workload_cases
