(* Tests for the baseline access stores: shadow memory (flat and paged),
   the chained hash table, and SD3-style stride compression. *)

module Dep_store = Ddp_core.Dep_store

let payload line =
  Ddp_core.Payload.pack ~loc:(Ddp_minir.Loc.make ~file:1 ~line) ~var:0 ~thread:0

(* Drive a random trace through an Algo instance over a given store and
   through the perfect oracle; the exact baselines must agree. *)
let trace_gen =
  QCheck.(list_of_size Gen.(int_range 1 150) (triple bool (int_range 0 2000) (int_range 1 25)))

let run_perfect trace =
  let deps = Dep_store.create () in
  let algo =
    Ddp_core.Algo.Over_perfect.create
      ~store:(Ddp_core.Perfect_sig.create ())
      ~deps ()
  in
  List.iteri
    (fun i (w, addr, line) ->
      if w then Ddp_core.Algo.Over_perfect.on_write algo ~addr ~payload:(payload line) ~time:i
      else Ddp_core.Algo.Over_perfect.on_read algo ~addr ~payload:(payload line) ~time:i)
    trace;
  Dep_store.key_set deps

let prop_flat_shadow_exact =
  QCheck.Test.make ~name:"flat shadow == perfect" ~count:100 trace_gen (fun trace ->
      let deps = Dep_store.create () in
      let algo =
        Ddp_baselines.Shadow_memory.Algo_flat.create
          ~store:
            (Ddp_baselines.Shadow_memory.Flat_pair.make
               ~reads:(Ddp_baselines.Shadow_memory.Flat.create ())
               ~writes:(Ddp_baselines.Shadow_memory.Flat.create ()))
          ~deps ()
      in
      List.iteri
        (fun i (w, addr, line) ->
          if w then
            Ddp_baselines.Shadow_memory.Algo_flat.on_write algo ~addr ~payload:(payload line) ~time:i
          else
            Ddp_baselines.Shadow_memory.Algo_flat.on_read algo ~addr ~payload:(payload line) ~time:i)
        trace;
      Dep_store.Key_set.equal (Dep_store.key_set deps) (run_perfect trace))

let prop_paged_shadow_exact =
  QCheck.Test.make ~name:"paged shadow == perfect" ~count:100 trace_gen (fun trace ->
      let deps = Dep_store.create () in
      let algo =
        Ddp_baselines.Shadow_memory.Algo_paged.create
          ~store:
            (Ddp_baselines.Shadow_memory.Paged_pair.make
               ~reads:(Ddp_baselines.Shadow_memory.Paged.create ())
               ~writes:(Ddp_baselines.Shadow_memory.Paged.create ()))
          ~deps ()
      in
      List.iteri
        (fun i (w, addr, line) ->
          if w then
            Ddp_baselines.Shadow_memory.Algo_paged.on_write algo ~addr ~payload:(payload line)
              ~time:i
          else
            Ddp_baselines.Shadow_memory.Algo_paged.on_read algo ~addr ~payload:(payload line)
              ~time:i)
        trace;
      Dep_store.Key_set.equal (Dep_store.key_set deps) (run_perfect trace))

let prop_hash_profiler_exact =
  QCheck.Test.make ~name:"chained hash table == perfect" ~count:100 trace_gen (fun trace ->
      let deps = Dep_store.create () in
      let algo =
        Ddp_baselines.Hash_profiler.Algo.create
          ~store:
            (Ddp_baselines.Hash_profiler.Pair.make
               ~reads:(Ddp_baselines.Hash_profiler.create ~initial_buckets:4 ())
               ~writes:(Ddp_baselines.Hash_profiler.create ~initial_buckets:4 ()))
          ~deps ()
      in
      List.iteri
        (fun i (w, addr, line) ->
          if w then Ddp_baselines.Hash_profiler.Algo.on_write algo ~addr ~payload:(payload line) ~time:i
          else Ddp_baselines.Hash_profiler.Algo.on_read algo ~addr ~payload:(payload line) ~time:i)
        trace;
      Dep_store.Key_set.equal (Dep_store.key_set deps) (run_perfect trace))

let test_hash_profiler_basics () =
  let h = Ddp_baselines.Hash_profiler.create ~initial_buckets:2 () in
  for a = 0 to 99 do
    Ddp_baselines.Hash_profiler.set h ~addr:a ~payload:(payload (1 + (a mod 20))) ~time:a
  done;
  Alcotest.(check int) "entries" 100 (Ddp_baselines.Hash_profiler.entries h);
  Alcotest.(check int) "probe exact" (payload (1 + (57 mod 20)))
    (Ddp_baselines.Hash_profiler.probe h ~addr:57);
  Ddp_baselines.Hash_profiler.remove h ~addr:57;
  Alcotest.(check int) "removed" 0 (Ddp_baselines.Hash_profiler.probe h ~addr:57);
  Alcotest.(check int) "entries down" 99 (Ddp_baselines.Hash_profiler.entries h)

let test_flat_shadow_covers_range () =
  let f = Ddp_baselines.Shadow_memory.Flat.create () in
  Ddp_baselines.Shadow_memory.Flat.set f ~addr:100_000 ~payload:(payload 1) ~time:0;
  Alcotest.(check bool) "pays for the whole range" true
    (Ddp_baselines.Shadow_memory.Flat.covered_range f > 100_000);
  Alcotest.(check bool) "bytes track range" true
    (Ddp_baselines.Shadow_memory.Flat.bytes f >= 100_000 * 16)

let test_paged_shadow_sparse () =
  let p = Ddp_baselines.Shadow_memory.Paged.create () in
  Ddp_baselines.Shadow_memory.Paged.set p ~addr:0 ~payload:(payload 1) ~time:0;
  Ddp_baselines.Shadow_memory.Paged.set p ~addr:100_000_000 ~payload:(payload 2) ~time:1;
  Alcotest.(check int) "only two pages" 2 (Ddp_baselines.Shadow_memory.Paged.pages p);
  Alcotest.(check int) "far probe exact" (payload 2)
    (Ddp_baselines.Shadow_memory.Paged.probe p ~addr:100_000_000)

let test_addr_spread_blows_up_flat () =
  (* The dense/sparse contrast the paper describes: same 1000 addresses,
     flat shadow memory is ~spread-factor larger when they are spread. *)
  let dense = Ddp_baselines.Shadow_memory.Flat.create () in
  let sparse = Ddp_baselines.Shadow_memory.Flat.create () in
  for a = 0 to 999 do
    Ddp_baselines.Shadow_memory.Flat.set dense ~addr:a ~payload:(payload 1) ~time:0;
    Ddp_baselines.Shadow_memory.Flat.set sparse
      ~addr:(Ddp_baselines.Shadow_memory.Addr_spread.spread ~factor:4096 a)
      ~payload:(payload 1) ~time:0
  done;
  let ratio =
    float_of_int (Ddp_baselines.Shadow_memory.Flat.bytes sparse)
    /. float_of_int (Ddp_baselines.Shadow_memory.Flat.bytes dense)
  in
  Alcotest.(check bool) (Printf.sprintf "sparse >> dense (ratio %.0f)" ratio) true (ratio > 100.0)

(* -- SD3 stride compression ----------------------------------------------- *)

let test_stride_compresses_walk () =
  let t = Ddp_baselines.Stride_sd3.create () in
  (* One source line walking 10k consecutive addresses: O(1) records. *)
  for a = 0 to 9_999 do
    Ddp_baselines.Stride_sd3.on_write t ~addr:a ~payload:(payload 1) ~time:a
  done;
  Alcotest.(check bool) "few records" true (Ddp_baselines.Stride_sd3.records t < 8);
  Alcotest.(check bool) "compression factor large" true
    (Ddp_baselines.Stride_sd3.compression_vs ~distinct_addresses:10_000 t > 1000.0)

let test_stride_detects_raw () =
  let t = Ddp_baselines.Stride_sd3.create () in
  for a = 0 to 99 do
    Ddp_baselines.Stride_sd3.on_write t ~addr:a ~payload:(payload 1) ~time:a
  done;
  (* A read inside the written range must produce a RAW at run
     granularity. *)
  Ddp_baselines.Stride_sd3.on_read t ~addr:50 ~payload:(payload 2) ~time:100;
  let deps = Ddp_baselines.Stride_sd3.deps t in
  let has_raw =
    Dep_store.fold deps (fun d _ acc -> acc || d.Ddp_core.Dep.kind = Ddp_core.Dep.RAW) false
  in
  Alcotest.(check bool) "RAW found" true has_raw

let test_stride_point_accesses () =
  let t = Ddp_baselines.Stride_sd3.create () in
  Ddp_baselines.Stride_sd3.on_write t ~addr:7 ~payload:(payload 1) ~time:0;
  Ddp_baselines.Stride_sd3.on_read t ~addr:7 ~payload:(payload 2) ~time:1;
  let deps = Ddp_baselines.Stride_sd3.deps t in
  Alcotest.(check bool) "point RAW" true (Dep_store.distinct deps > 0);
  (* A read outside any run must not. *)
  let before = Dep_store.distinct deps in
  Ddp_baselines.Stride_sd3.on_read t ~addr:1234 ~payload:(payload 3) ~time:2;
  Alcotest.(check int) "no spurious dep" before (Dep_store.distinct (Ddp_baselines.Stride_sd3.deps t))

let suite =
  [
    Alcotest.test_case "hash profiler basics" `Quick test_hash_profiler_basics;
    Alcotest.test_case "flat shadow covers range" `Quick test_flat_shadow_covers_range;
    Alcotest.test_case "paged shadow sparse" `Quick test_paged_shadow_sparse;
    Alcotest.test_case "addr spread blows up flat" `Quick test_addr_spread_blows_up_flat;
    Alcotest.test_case "stride compresses walk" `Quick test_stride_compresses_walk;
    Alcotest.test_case "stride detects RAW" `Quick test_stride_detects_raw;
    Alcotest.test_case "stride point accesses" `Quick test_stride_point_accesses;
    Test_seed.to_alcotest prop_flat_shadow_exact;
    Test_seed.to_alcotest prop_paged_shadow_exact;
    Test_seed.to_alcotest prop_hash_profiler_exact;
  ]
