(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Sec. VI and VII) plus the ablations called out in
   DESIGN.md.

     dune exec bench/main.exe                 -- all experiments
     dune exec bench/main.exe -- table1 fig9  -- a selection
     dune exec bench/main.exe -- --list

   Experiment ids: table1 fig5 fig6 fig7 fig8 table2 fig9 eq2 merge
   ablate-baselines ablate-war ablate-redist micro.
   (fig5/fig7 share one measurement pass, as do fig6/fig8.)

   See EXPERIMENTS.md for paper-vs-measured discussion; DESIGN.md for the
   1-core makespan-model methodology. *)

module Config = Ddp_core.Config
module H = Harness
module Wl = Ddp_workloads.Wl

let fprintf = Printf.printf

(* Baseline engines register themselves on load; the explicit call forces
   linkage so "shadow"/"hashtable"/"stride" resolve in the registry. *)
let () = Ddp_baselines.Baseline_engines.register ()

let bench_config =
  {
    Config.default with
    slots = 1 lsl 20;
    chunk_size = 1024;
    queue_capacity = 64;
    redistribution_interval = 500;
    stats_sample = 16;
  }

let seq_prog name () = (Ddp_workloads.Registry.find name).Wl.seq ~scale:1

let par_prog ?(threads = 4) name () =
  match (Ddp_workloads.Registry.find name).Wl.par with
  | Some par -> par ~threads ~scale:1
  | None -> invalid_arg (name ^ " has no parallel variant")

let nas_names = List.map (fun (w : Wl.t) -> w.name) Ddp_workloads.Registry.nas
let star_names = List.map (fun (w : Wl.t) -> w.name) Ddp_workloads.Registry.starbench

(* ==== Table I: accuracy of profiled dependences ========================== *)

(* The paper sweeps 1e6 / 1e7 / 1e8 slots over workloads with 4e2..6e6
   addresses.  Our scaled workloads touch 1e2..4e5 addresses, so the
   sweep is scaled to keep the slots-to-addresses ratios comparable. *)
let table1_slot_sizes = [ 1 lsl 12; 1 lsl 15; 1 lsl 19 ]

let table1 () =
  H.header
    "Table I: false positive / false negative rates of profiled dependences (Starbench)";
  (* Every approximate engine in the registry is measured against the
     exact "perfect" oracle: adding an engine adds rows, not wiring. *)
  let engines =
    List.filter (fun (e : Ddp_core.Engine.t) -> not e.exact) (Ddp_core.Engine.all ())
  in
  fprintf "%-16s %5s %9s %10s %6s" "program/engine" "LOC" "#addr" "#accesses" "#deps";
  List.iter
    (fun slots -> fprintf " | m=2^%-2d FPR%%  FNR%%" (int_of_float (log (float_of_int slots) /. log 2.0)))
    table1_slot_sizes;
  fprintf "\n";
  let sums = Hashtbl.create 8 in
  let sums_of (e : Ddp_core.Engine.t) =
    match Hashtbl.find_opt sums e.name with
    | Some a -> a
    | None ->
      let a = Array.make (2 * List.length table1_slot_sizes) 0.0 in
      Hashtbl.add sums e.name a;
      a
  in
  let count = ref 0 in
  List.iter
    (fun name ->
      let perfect =
        Ddp_core.Profiler.profile ~mode:"perfect" ~config:bench_config (seq_prog name ())
      in
      fprintf "%-16s %5d %9d %10d %6d\n" name perfect.run_stats.lines
        perfect.run_stats.addresses perfect.run_stats.accesses
        (Ddp_core.Dep_store.distinct perfect.deps);
      incr count;
      List.iter
        (fun (engine : Ddp_core.Engine.t) ->
          let a = sums_of engine in
          fprintf "  %-14s %5s %9s %10s %6s" engine.name "" "" "" "";
          List.iteri
            (fun i slots ->
              let o =
                Ddp_core.Profiler.profile ~mode:engine.name
                  ~config:{ bench_config with slots }
                  (seq_prog name ())
              in
              let acc = Ddp_core.Accuracy.compare_stores ~profiled:o.deps ~perfect:perfect.deps in
              a.(2 * i) <- a.(2 * i) +. acc.fpr;
              a.((2 * i) + 1) <- a.((2 * i) + 1) +. acc.fnr;
              fprintf " | %11.2f %5.2f" (100.0 *. acc.fpr) (100.0 *. acc.fnr))
            table1_slot_sizes;
          fprintf "\n%!")
        engines)
    star_names;
  List.iter
    (fun (engine : Ddp_core.Engine.t) ->
      let a = sums_of engine in
      fprintf "%-16s %5s %9s %10s %6s" ("avg:" ^ engine.name) "" "" "" "";
      List.iteri
        (fun i _ ->
          fprintf " | %11.2f %5.2f"
            (100.0 *. a.(2 * i) /. float_of_int !count)
            (100.0 *. a.((2 * i) + 1) /. float_of_int !count))
        table1_slot_sizes;
      fprintf "\n")
    engines;
  fprintf
    "shape check (paper: 24.5/5.4 -> 4.7/0.7 -> 0.35/0.04): signature-engine rates fall\n\
     steeply with slots; mt/parallel must match serial (same stores behind other\n\
     plumbing); stride is slot-independent (range compression, not hashing).\n"

(* ==== Fig. 5 + Fig. 7: sequential slowdown and memory =================== *)

type seq_row = {
  sr_name : string;
  sr_suite : string;
  sr_native : float;
  sr_serial : float;
  sr_serial_mem : int;
  sr_events : int;
  sr_imbalance : float;  (* max/mean worker load at 8 workers *)
  sr_lb8 : float;  (* measured wall, lock-based 8 workers *)
  sr_lb8_model : float;
  sr_lf8 : float;
  sr_lf8_model : float;
  sr_lf8_mem : int;
  sr_lf16 : float;
  sr_lf16_model : float;
  sr_lf16_mem : int;
  sr_curve : (int * float) list;  (* modeled slowdown at 1/2/4/8/16 workers *)
}

let parallel_mem (r : Ddp_core.Parallel_profiler.result) =
  r.signature_bytes + r.queue_bytes + r.chunk_bytes + r.dispatch_bytes
  + Ddp_core.Dep_store.approx_bytes r.deps

(* The paper fixes the signature size *per profiling thread* (6.25e6
   slots each, aggregating to 1e8 at 16 threads), so signature memory
   grows with the thread count; we scale the same way: [slots_per_worker]
   each, the serial profiler getting the 16-worker aggregate. *)
let slots_per_worker = bench_config.Config.slots / 16

let seq_config ~workers ~lock_free =
  { bench_config with workers; lock_free; slots = slots_per_worker * workers }

let measure_seq cal name suite =
  let prog_fn = seq_prog name in
  let native = H.run_native prog_fn in
  let serial_time, _, sp = H.run_serial ~config:bench_config prog_fn in
  let serial_mem =
    sp.Ddp_core.Serial_profiler.store_bytes ()
    + Ddp_core.Dep_store.approx_bytes sp.Ddp_core.Serial_profiler.deps
  in
  let run ~workers ~lock_free =
    let config = seq_config ~workers ~lock_free in
    let time, _, result, _ = H.run_parallel ~config prog_fn in
    let model =
      H.modeled_time cal ~lock_free ~native_time:native.native_time
        ~per_worker_events:result.per_worker_events
    in
    (time, model, parallel_mem result, result)
  in
  let lb8, lb8_model, _, _ = run ~workers:8 ~lock_free:false in
  let lf8, lf8_model, lf8_mem, r8 = run ~workers:8 ~lock_free:true in
  let lf16, lf16_model, lf16_mem, _ = run ~workers:16 ~lock_free:true in
  let imbalance =
    Ddp_util.Stats.imbalance (Array.map float_of_int r8.per_worker_events)
  in
  let events = Array.fold_left ( + ) 0 r8.per_worker_events in
  let curve =
    List.map
      (fun workers ->
        ( workers,
          H.modeled_time_at cal ~lock_free:true ~native_time:native.native_time ~events ~workers
            ~imbalance
          /. native.native_time ))
      [ 1; 2; 4; 8; 16 ]
  in
  {
    sr_name = name;
    sr_suite = suite;
    sr_native = native.native_time;
    sr_serial = serial_time;
    sr_serial_mem = serial_mem;
    sr_events = events;
    sr_imbalance = imbalance;
    sr_lb8 = lb8;
    sr_lb8_model = lb8_model;
    sr_lf8 = lf8;
    sr_lf8_model = lf8_model;
    sr_lf8_mem = lf8_mem;
    sr_lf16 = lf16;
    sr_lf16_model = lf16_model;
    sr_lf16_mem = lf16_mem;
    sr_curve = curve;
  }

let seq_rows = ref ([] : seq_row list)

let get_seq_rows () =
  if !seq_rows = [] then begin
    let cal = H.calibrate ~config:bench_config () in
    fprintf
      "calibration: t_process=%.0f ns/ev, t_route(lock-free)=%.0f ns/ev, t_route(lock-based)=%.0f ns/ev\n"
      (1e9 *. cal.H.t_process)
      (1e9 *. cal.H.t_route_lock_free)
      (1e9 *. cal.H.t_route_lock_based);
    fprintf
      "             contended queue transfer: %.2f us/chunk lock-free vs %.2f us/chunk lock-based (%.1fx);\n\
      \             at %d accesses/chunk the queue cost amortizes to <1%% of routing, so the\n\
      \             model predicts near-parity; any lock-free gain appears only in the\n\
      \             measured (contended) columns, and 1-core timeslicing makes those noisy.\n%!"
      (1e6 *. cal.H.t_queue_chunk_lf) (1e6 *. cal.H.t_queue_chunk_lb)
      (cal.H.t_queue_chunk_lb /. cal.H.t_queue_chunk_lf)
      bench_config.Config.chunk_size;
    seq_rows :=
      List.map (fun n -> measure_seq cal n "NAS") nas_names
      @ List.map (fun n -> measure_seq cal n "Starbench") star_names
  end;
  !seq_rows

let avg f rows = Ddp_util.Stats.mean (Array.of_list (List.map f rows))

let fig5 () =
  H.header "Fig. 5: profiler slowdowns, sequential NAS + Starbench";
  fprintf "(measured = 1-core wall clock; modeled = multicore pipeline makespan)\n";
  let rows = get_seq_rows () in
  fprintf "%-14s | %8s | %9s %9s %9s | %9s %9s %9s\n" "program" "serial" "8T-lock" "8T-free"
    "16T-free" "8T-lock*" "8T-free*" "16T-free*";
  fprintf "%-14s | %8s | %27s | %29s\n" "" "" "measured slowdown (1 core)"
    "modeled multicore slowdown";
  let print_row r =
    let s x = x /. r.sr_native in
    fprintf "%-14s | %8s | %9s %9s %9s | %9s %9s %9s\n" r.sr_name
      (H.pp_slowdown (s r.sr_serial))
      (H.pp_slowdown (s r.sr_lb8))
      (H.pp_slowdown (s r.sr_lf8))
      (H.pp_slowdown (s r.sr_lf16))
      (H.pp_slowdown (s r.sr_lb8_model))
      (H.pp_slowdown (s r.sr_lf8_model))
      (H.pp_slowdown (s r.sr_lf16_model))
  in
  List.iter print_row rows;
  let averages suite =
    let rs = List.filter (fun r -> r.sr_suite = suite) rows in
    fprintf "%-14s | %8s | %9s %9s %9s | %9s %9s %9s\n" (suite ^ "-average")
      (H.pp_slowdown (avg (fun r -> r.sr_serial /. r.sr_native) rs))
      (H.pp_slowdown (avg (fun r -> r.sr_lb8 /. r.sr_native) rs))
      (H.pp_slowdown (avg (fun r -> r.sr_lf8 /. r.sr_native) rs))
      (H.pp_slowdown (avg (fun r -> r.sr_lf16 /. r.sr_native) rs))
      (H.pp_slowdown (avg (fun r -> r.sr_lb8_model /. r.sr_native) rs))
      (H.pp_slowdown (avg (fun r -> r.sr_lf8_model /. r.sr_native) rs))
      (H.pp_slowdown (avg (fun r -> r.sr_lf16_model /. r.sr_native) rs))
  in
  averages "NAS";
  averages "Starbench";
  fprintf "\nmodeled slowdown curve vs profiling threads (lock-free; the paper's scaling story):\n";
  fprintf "%-14s %9s %9s %9s %9s %9s %9s  %s\n" "program" "serial" "W=1" "W=2" "W=4" "W=8"
    "W=16" "imbalance";
  List.iter
    (fun r ->
      fprintf "%-14s %9s" r.sr_name (H.pp_slowdown (r.sr_serial /. r.sr_native));
      List.iter (fun (_, s) -> fprintf " %9s" (H.pp_slowdown s)) r.sr_curve;
      fprintf " %9.2f\n" r.sr_imbalance)
    rows;
  fprintf
    "shape check (paper: serial 190x -> 8T ~100x -> 16T ~78-93x, i.e. 2.4x speedup\n\
     at 16T, sub-linear; lock-free beats lock-based by 1.3-1.6x): the modeled curve\n\
     must fall with workers and then saturate at the producer bound, with skewed\n\
     workloads (high imbalance, cf. md5/kmeans) saturating earlier — the paper's\n\
     own explanation for its non-linear speedup (Sec. VI-B).\n"

let fig7 () =
  H.header "Fig. 7: profiler memory consumption, sequential NAS + Starbench (accounted bytes)";
  let rows = get_seq_rows () in
  fprintf "%-14s %12s %12s %12s\n" "program" "serial(MiB)" "8T(MiB)" "16T(MiB)";
  List.iter
    (fun r ->
      fprintf "%-14s %12.1f %12.1f %12.1f\n" r.sr_name (H.mib r.sr_serial_mem)
        (H.mib r.sr_lf8_mem) (H.mib r.sr_lf16_mem))
    rows;
  let averages suite =
    let rs = List.filter (fun r -> r.sr_suite = suite) rows in
    fprintf "%-14s %12.1f %12.1f %12.1f\n" (suite ^ "-average")
      (H.mib (int_of_float (avg (fun r -> float_of_int r.sr_serial_mem) rs)))
      (H.mib (int_of_float (avg (fun r -> float_of_int r.sr_lf8_mem) rs)))
      (H.mib (int_of_float (avg (fun r -> float_of_int r.sr_lf16_mem) rs)))
  in
  averages "NAS";
  averages "Starbench";
  fprintf
    "shape check (paper: 473-505 MB at 8T, 649-1390 MB at 16T, signatures dominate):\n\
     signature bytes scale with total slots; queue/chunk pools grow with workers.\n"

(* ==== Fig. 6 + Fig. 8: multi-threaded targets ============================ *)

type mt_row = {
  mr_name : string;
  mr_native : float;
  mr_w8 : float;
  mr_w8_model : float;
  mr_w8_mem : int;
  mr_w16 : float;
  mr_w16_model : float;
  mr_w16_mem : int;
  mr_races : int;
}

let mt_rows = ref ([] : mt_row list)

let get_mt_rows () =
  if !mt_rows = [] then begin
    let cal = H.calibrate ~config:bench_config () in
    mt_rows :=
      List.map
        (fun name ->
          let prog_fn = par_prog ~threads:4 name in
          let native = H.run_native prog_fn in
          let run workers =
            let config =
              { (seq_config ~workers ~lock_free:true) with check_timestamps = true }
            in
            let time, _, result, mt_bytes = H.run_parallel ~mt:true ~config prog_fn in
            let model =
              H.modeled_time ~mt:true cal ~lock_free:true ~native_time:native.H.native_time
                ~per_worker_events:result.per_worker_events
            in
            (time, model, parallel_mem result + mt_bytes, result)
          in
          let w8, w8_model, w8_mem, _ = run 8 in
          let w16, w16_model, w16_mem, r16 = run 16 in
          {
            mr_name = name;
            mr_native = native.H.native_time;
            mr_w8 = w8;
            mr_w8_model = w8_model;
            mr_w8_mem = w8_mem;
            mr_w16 = w16;
            mr_w16_model = w16_model;
            mr_w16_mem = w16_mem;
            mr_races = Ddp_analyses.Race_report.count r16.Ddp_core.Parallel_profiler.deps;
          })
        star_names
  end;
  !mt_rows

let fig6 () =
  H.header "Fig. 6: profiler slowdown, parallel Starbench targets (pthread-style, 4 threads)";
  let rows = get_mt_rows () in
  fprintf "%-14s | %9s %9s | %9s %9s | %6s\n" "program" "8T-wall" "16T-wall" "8T-model"
    "16T-model" "races";
  List.iter
    (fun r ->
      fprintf "%-14s | %9s %9s | %9s %9s | %6d\n" r.mr_name
        (H.pp_slowdown (r.mr_w8 /. r.mr_native))
        (H.pp_slowdown (r.mr_w16 /. r.mr_native))
        (H.pp_slowdown (r.mr_w8_model /. r.mr_native))
        (H.pp_slowdown (r.mr_w16_model /. r.mr_native))
        r.mr_races)
    rows;
  fprintf "%-14s | %9s %9s | %9s %9s |\n" "average"
    (H.pp_slowdown (avg (fun r -> r.mr_w8 /. r.mr_native) rows))
    (H.pp_slowdown (avg (fun r -> r.mr_w16 /. r.mr_native) rows))
    (H.pp_slowdown (avg (fun r -> r.mr_w8_model /. r.mr_native) rows))
    (H.pp_slowdown (avg (fun r -> r.mr_w16_model /. r.mr_native) rows));
  fprintf
    "shape check (paper: 346x at 8T -> 261x at 16T, higher than sequential profiling):\n\
     MT overhead exceeds the sequential case (reorder buffers, timestamps), and the\n\
     modeled slowdown falls with more profiling threads.\n"

let fig8 () =
  H.header "Fig. 8: profiler memory, parallel Starbench targets (accounted bytes)";
  let rows = get_mt_rows () in
  fprintf "%-14s %12s %12s\n" "program" "8T(MiB)" "16T(MiB)";
  List.iter
    (fun r -> fprintf "%-14s %12.1f %12.1f\n" r.mr_name (H.mib r.mr_w8_mem) (H.mib r.mr_w16_mem))
    rows;
  fprintf "%-14s %12.1f %12.1f\n" "average"
    (H.mib (int_of_float (avg (fun r -> float_of_int r.mr_w8_mem) rows)))
    (H.mib (int_of_float (avg (fun r -> float_of_int r.mr_w16_mem) rows)));
  fprintf
    "shape check (paper: 995 MB at 8T / 1920 MB at 16T, above the sequential case):\n\
     memory grows with profiling threads and exceeds the Fig. 7 numbers.\n"

(* ==== Table II: parallelizable-loop detection ============================ *)

let table2 () =
  H.header "Table II: detection of parallelizable loops in NAS benchmarks";
  fprintf "%-8s %7s %15s %16s %9s\n" "program" "# OMP" "# identified(DP)" "# identified(sig)"
    "# missed";
  let totals = Array.make 4 0 in
  List.iter
    (fun name ->
      let prog () = seq_prog name () in
      let dp = Ddp_analyses.Loop_parallelism.analyze ~perfect:true (prog ()) in
      let sg =
        Ddp_analyses.Loop_parallelism.analyze ~config:bench_config ~perfect:false (prog ())
      in
      let missed_vs_dp = dp.identified - sg.identified in
      fprintf "%-8s %7d %15d %16d %9d\n" name dp.annotated_total dp.identified sg.identified
        missed_vs_dp;
      totals.(0) <- totals.(0) + dp.annotated_total;
      totals.(1) <- totals.(1) + dp.identified;
      totals.(2) <- totals.(2) + sg.identified;
      totals.(3) <- totals.(3) + missed_vs_dp)
    nas_names;
  fprintf "%-8s %7d %15d %16d %9d\n" "Overall" totals.(0) totals.(1) totals.(2) totals.(3);
  fprintf
    "shape check (paper: 136/147 identified, signature misses 0 vs DiscoPoP): the\n\
     signature column must equal the DP column (0 missed), with some annotated\n\
     loops unprovable for both (atomics/criticals invisible to dependence tests).\n"

(* ==== Fig. 9: communication pattern ===================================== *)

let fig9 () =
  H.header "Fig. 9: communication pattern of water-spatial (4 worker threads)";
  let prog = Ddp_workloads.Water_spatial.par ~threads:4 ~scale:2 in
  let outcome = Ddp_core.Profiler.profile ~mode:"serial" ~mt:true prog in
  let m = Ddp_analyses.Comm_pattern.workers_only (Ddp_analyses.Comm_pattern.of_deps outcome.deps) in
  print_string (Ddp_analyses.Comm_pattern.render m);
  let total = Ddp_analyses.Comm_pattern.total_volume m in
  let banded = ref 0.0 in
  let n = Ddp_util.Matrix.rows m in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      if abs (r - c) = 1 then banded := !banded +. Ddp_util.Matrix.get m r c
    done
  done;
  fprintf "cross-thread RAW volume: %.0f; neighbour-band share: %.1f%%\n" total
    (100.0 *. !banded /. total);
  fprintf
    "shape check (paper Fig. 9): halo exchange between adjacent slab owners gives a\n\
     banded matrix; the lock-protected global sum adds a faint background.\n"

(* ==== Eq. (2): FPR model ================================================= *)

let eq2 () =
  H.header "Eq. (2): predicted vs measured false-positive behaviour";
  List.iter
    (fun name ->
      let prog_fn = seq_prog name in
      let native = H.run_native prog_fn in
      let perfect =
        Ddp_core.Profiler.profile ~mode:"perfect" ~config:bench_config (prog_fn ())
      in
      fprintf "%s (%d addresses):\n" name native.H.addresses;
      List.iter
        (fun slots ->
          let predicted = Ddp_core.Fpr_model.p_fp ~slots ~addresses:native.H.addresses in
          let o =
            Ddp_core.Profiler.profile ~mode:"serial" ~config:{ bench_config with slots }
              (prog_fn ())
          in
          let acc = Ddp_core.Accuracy.compare_stores ~profiled:o.deps ~perfect:perfect.deps in
          fprintf "  slots %8d: predicted slot collision %6.2f%%   measured dep FPR %6.2f%% FNR %5.2f%%\n"
            slots (100.0 *. predicted) (100.0 *. acc.fpr) (100.0 *. acc.fnr))
        [ 1 lsl 12; 1 lsl 14; 1 lsl 16; 1 lsl 18; 1 lsl 20 ])
    [ "rotate"; "rgbyuv"; "streamcluster" ];
  fprintf
    "shape check: measured FPR/FNR fall monotonically as predicted collision falls;\n\
     P_fp is inversely proportional to m and proportional to n (paper Sec. VI-A).\n"

(* ==== merging ablation =================================================== *)

let merge () =
  H.header "Merging identical dependences (paper Sec. III-B: ~1e5x output reduction)";
  fprintf "%-14s %12s %10s %12s %14s\n" "program" "occurrences" "distinct" "merge-factor"
    "est. raw size";
  List.iter
    (fun name ->
      let o =
        Ddp_core.Profiler.profile ~mode:"serial" ~config:bench_config (seq_prog name ())
      in
      (* ~40 bytes per textual dependence record, the paper's 6.1 GB -> 53 KB
         comparison in miniature *)
      let raw_bytes = 40 * Ddp_core.Dep_store.total_occurrences o.deps in
      fprintf "%-14s %12d %10d %11.0fx %11.1f MiB\n" name
        (Ddp_core.Dep_store.total_occurrences o.deps)
        (Ddp_core.Dep_store.distinct o.deps)
        (Ddp_core.Dep_store.merge_factor o.deps)
        (H.mib raw_bytes))
    nas_names

(* ==== baselines ablation ================================================= *)

let ablate_baselines () =
  H.header "Ablation: signature vs hash table vs shadow memory (paper Sec. III-B)";
  (* The comparison is made on a synthetic access stream (flat int
     arrays), so the measured time is purely the engine's: this mirrors
     the paper's setting, where instrumentation is cheap native code and
     the access-record bookkeeping dominates.  Every store-style engine
     in the registry gets a row ("parallel"/"mt" are pipeline plumbing
     around the serial store, not stores, so they are skipped); the same
     Source feeds each one. *)
  let n = 3_000_000 in
  let distinct = 200_000 in
  let rng = Ddp_util.Rng.create 17 in
  let addrs = Array.init n (fun _ -> Ddp_util.Rng.int rng distinct) in
  let is_write = Array.init n (fun _ -> Ddp_util.Rng.bool rng) in
  let loc = Ddp_minir.Loc.make ~file:1 ~line:1 in
  let source =
    Ddp_core.Source.of_fn ~name:"synthetic-trace" (fun hooks ->
        for i = 0 to n - 1 do
          if is_write.(i) then
            hooks.Ddp_minir.Event.on_write ~addr:addrs.(i) ~loc ~var:0 ~thread:0 ~time:i
              ~locked:false
          else
            hooks.Ddp_minir.Event.on_read ~addr:addrs.(i) ~loc ~var:0 ~thread:0 ~time:i
              ~locked:false
        done;
        n)
  in
  let engines =
    List.filter
      (fun (e : Ddp_core.Engine.t) -> e.name <> "parallel" && e.name <> "mt")
      (Ddp_core.Engine.all ())
  in
  fprintf "trace: %d accesses over %d distinct addresses\n" n distinct;
  fprintf "%-22s %10s %12s %12s\n" "engine" "time(s)" "ns/access" "memory(MiB)";
  let t_sig = ref 0.0 in
  List.iter
    (fun (engine : Ddp_core.Engine.t) ->
      let o = Ddp_core.Profiler.run ~mode:engine.name ~config:bench_config source in
      if engine.name = "serial" then t_sig := o.elapsed;
      fprintf "%-22s %10.3f %12.1f %12.2f%s\n" engine.name o.elapsed
        (1e9 *. o.elapsed /. float_of_int n)
        (H.mib o.store_bytes)
        (if engine.name = "serial" || !t_sig = 0.0 then ""
         else Printf.sprintf "   (%.2fx vs signature)" (o.elapsed /. !t_sig)))
    engines;
  (* flat shadow under realistic (sparse) pointer spread *)
  (* Flat shadow memory pays for the whole address range.  Under a
     realistic 4096x pointer spread the table for this trace would need
     ~13 GiB — the paper's "impossible ... if no more than 16 GB of
     memory is available" case — so the requirement is computed, and
     demonstrated by allocation only on a 1000-address slice. *)
  let spread_factor = 4096 in
  let full_range =
    Ddp_baselines.Shadow_memory.Addr_spread.spread ~factor:spread_factor (distinct - 1) + 1
  in
  fprintf "%-22s %10s %12s %12.2f   (computed: flat table over a %dx-spread space)\n"
    "flat shadow memory" "-" "-"
    (H.mib (full_range * 16))
    spread_factor;
  let flat = Ddp_baselines.Shadow_memory.Flat.create () in
  for a = 0 to 999 do
    Ddp_baselines.Shadow_memory.Flat.set flat
      ~addr:(Ddp_baselines.Shadow_memory.Addr_spread.spread ~factor:spread_factor a)
      ~payload:1 ~time:0
  done;
  fprintf "%-22s %10s %12s %12.2f   (allocated: same layout, first 1000 addresses)\n"
    "  (1000-addr slice)" "-" "-"
    (H.mib (Ddp_baselines.Shadow_memory.Flat.bytes flat));
  fprintf
    "shape check (paper: hash table 1.5-3.7x slower than signatures; flat shadow\n\
     infeasible on sparse address spaces; signatures bound memory by construction).\n"

(* ==== WAR pseudocode ablation ============================================ *)

let ablate_war () =
  H.header "Ablation: literal Algorithm 1 WAR (requires prior write) vs prose behaviour";
  fprintf "%-14s %12s %14s %10s\n" "program" "WAR (prose)" "WAR (literal)" "lost";
  List.iter
    (fun name ->
      let war_count config =
        let o = Ddp_core.Profiler.profile ~mode:"serial" ~config (seq_prog name ()) in
        let _, war, _, _, _ = Ddp_core.Report.kind_counts o.deps in
        war
      in
      let prose = war_count bench_config in
      let literal = war_count { bench_config with war_requires_prior_write = true } in
      fprintf "%-14s %12d %14d %9.1f%%\n" name prose literal
        (100.0 *. float_of_int (prose - literal) /. float_of_int (max prose 1)))
    [ "is"; "cg"; "mg"; "c-ray"; "kmeans"; "tinyjpeg" ];
  (* The workloads above initialize arrays before reading them, so both
     variants agree there.  An in-place update of *externally initialized*
     data (zero-filled buffers, memory-mapped input) reads before any
     recorded write — the case the literal pseudocode silently drops. *)
  let module B = Ddp_minir.Builder in
  let inplace () =
    B.program ~name:"inplace"
      [
        B.arr "buf" (B.i 256);
        (* scale in place: read buf[i] (never written), then overwrite *)
        B.for_ "i" (B.i 0) (B.i 256) (fun iv ->
            [ B.store "buf" iv B.(idx "buf" iv *: i 3) ]);
      ]
  in
  let war_of config =
    let o = Ddp_core.Profiler.profile ~mode:"serial" ~config (inplace ()) in
    let _, war, _, _, _ = Ddp_core.Report.kind_counts o.deps in
    war
  in
  let prose = war_of bench_config in
  let literal = war_of { bench_config with war_requires_prior_write = true } in
  fprintf "%-14s %12d %14d %9.1f%%   (uninitialized-input update)\n" "inplace-scale" prose
    literal
    (100.0 *. float_of_int (prose - literal) /. float_of_int (max prose 1));
  fprintf
    "the literal pseudocode silently drops WAR dependences whose address was read\n\
     but never previously written (externally initialized / zero-filled inputs);\n\
     on write-before-read workloads the two variants agree.\n"

(* ==== redistribution ablation ============================================ *)

(* A histogram whose counters sit at stride-W addresses: under the modulo
   rule every hot counter lands on the *same* worker — the pathological
   skew the paper's redistribution exists for.  (Real workloads below it
   for contrast: their hot scalars have consecutive addresses, which the
   modulo rule already spreads, so redistribution rarely fires — matching
   the paper's "at most 20 times per benchmark".) *)
let skewed_histogram () =
  let module B = Ddp_minir.Builder in
  let w = 8 in
  B.program ~name:"skewed-histogram"
    [
      B.arr "h" (B.i (w * w));
      Ddp_workloads.Wl.zero_loop "h" (w * w);
      B.for_ "i" (B.i 0) (B.i 150_000) (fun _ ->
          [
            B.local "b" B.(rand_int (i w) *: i w);  (* hot cells at stride 8 *)
            B.store "h" (B.v "b") B.(idx "h" (v "b") +: i 1);
          ]);
    ]

let ablate_redist () =
  H.header "Ablation: hot-address redistribution (paper Sec. IV-A)";
  fprintf "%-18s %12s %14s %14s %12s\n" "program" "redistrib." "imbalance-on" "imbalance-off"
    "model-gain";
  let cases =
    ("skewed-histogram", fun () -> skewed_histogram ())
    :: List.map (fun name -> (name, seq_prog name)) [ "md5"; "kmeans"; "streamcluster" ]
  in
  List.iter
    (fun (name, prog_fn) ->
      let run interval =
        let config =
          { bench_config with workers = 8; redistribution_interval = interval; stats_sample = 4 }
        in
        let _, _, result, _ = H.run_parallel ~config prog_fn in
        result
      in
      let on = run 50 in
      let off = run 0 in
      let imb (r : Ddp_core.Parallel_profiler.result) =
        Ddp_util.Stats.imbalance (Array.map float_of_int r.per_worker_events)
      in
      let max_events (r : Ddp_core.Parallel_profiler.result) =
        Array.fold_left max 0 r.per_worker_events
      in
      fprintf "%-18s %12d %14.2f %14.2f %11.2fx\n" name on.redistributions (imb on) (imb off)
        (float_of_int (max_events off) /. float_of_int (max 1 (max_events on))))
    cases;
  fprintf
    "imbalance = max worker events / mean; the modeled multicore time is bounded by\n\
     the slowest worker, so lowering imbalance lowers the makespan (model-gain).\n\
     Redistribution fires on the stride-congruent histogram and stays quiet on\n\
     workloads the modulo rule already balances (paper: <= 20 redistributions).\n"

(* ==== set-based profiling ablation ======================================= *)

let ablate_sections () =
  H.header
    "Ablation: statement-level vs set-based (loop-section) profiling (paper Sec. VI-B)";
  fprintf "%-14s | %10s %10s | %10s %10s | %8s\n" "program" "stmt-deps" "sect-deps" "stmt-time"
    "sect-time" "dep-cut";
  List.iter
    (fun name ->
      let run section_level =
        let config = { bench_config with section_level } in
        let t0 = Ddp_util.Clock.now () in
        let o = Ddp_core.Profiler.profile ~mode:"serial" ~config (seq_prog name ()) in
        (Ddp_core.Dep_store.distinct o.deps, Ddp_util.Clock.now () -. t0)
      in
      let stmt_deps, stmt_time = run false in
      let sect_deps, sect_time = run true in
      fprintf "%-14s | %10d %10d | %9.2fs %9.2fs | %7.1fx\n" name stmt_deps sect_deps stmt_time
        sect_time
        (float_of_int stmt_deps /. float_of_int (max 1 sect_deps)))
    [ "is"; "cg"; "mg"; "c-ray"; "tinyjpeg"; "h264dec" ];
  fprintf
    "set-based profiling reports dependences between code sections instead of\n\
     statements.  Measured: the cut is small (1.0-1.2x) and runtime does not\n\
     improve — post-merge dependence sets are already tiny, and loop-boundary\n\
     accesses (bound evaluation before entry) can even split across sections.\n\
     This supports the paper's choice to stay statement-level for generality\n\
     (Sec. VI-B); the offline equivalent is Dep_graph.collapse_to_regions.\n"

(* ==== telemetry overhead ================================================= *)

(* The always-on contract of lib/obs: with no hub configured every call
   site is one untaken branch, so the pipeline must run at baseline
   speed; an enabled hub adds chunk-granularity work only (never on the
   per-access path).  Best-of-N wall times bound the 1-core scheduler
   noise. *)
type obs_overhead_row = {
  oo_baseline : float;  (* config.obs = None *)
  oo_disabled : float;  (* config.obs = Some Obs.disabled — same branch *)
  oo_enabled : float;  (* live hub, monotonic clock *)
  oo_noise_pct : float;  (* spread of the baseline repetitions, % of best *)
}

let measure_obs_overhead ?(repeats = 3) ?(workload = "kmeans") () =
  let prog_fn = seq_prog workload in
  let config = seq_config ~workers:4 ~lock_free:true in
  (* warm up allocators / code paths so the first measured column doesn't
     absorb one-time costs *)
  ignore (H.run_parallel ~config prog_fn);
  let time obs =
    let config = { config with Config.obs = obs } in
    let time, _, _, _ = H.run_parallel ~config prog_fn in
    time
  in
  (* Interleave the three configurations within each repetition (A/B/C,
     A/B/C, ...) rather than measuring each column's k runs in a block:
     slow machine drift (thermal, page cache, competing jobs) then hits
     every column equally instead of whichever happened to run last —
     the old blocked order made "disabled" reproducibly *faster* than
     baseline by double-digit percent on a busy host.  Min-of-k bounds
     the remaining fast noise, and the baseline's own spread across
     repetitions is reported so the overhead columns are judged against
     the measured noise floor, not an assumed one. *)
  let base = Array.make repeats infinity in
  let dis = ref infinity and ena = ref infinity in
  for i = 0 to repeats - 1 do
    base.(i) <- time None;
    dis := min !dis (time (Some Ddp_obs.Obs.disabled));
    ena := min !ena (time (Some (Ddp_obs.Obs.create ~domains:5 ())))
  done;
  let best_base = Array.fold_left min infinity base in
  let worst_base = Array.fold_left max 0.0 base in
  {
    oo_baseline = best_base;
    oo_disabled = !dis;
    oo_enabled = !ena;
    oo_noise_pct = 100.0 *. ((worst_base /. best_base) -. 1.0);
  }

let obs_overhead () =
  H.header "Telemetry overhead: parallel pipeline, disabled vs enabled hub (interleaved, best of 3)";
  let r = measure_obs_overhead () in
  let pct t = 100.0 *. ((t /. r.oo_baseline) -. 1.0) in
  fprintf "%-28s %10.3fs  (repetition spread %.2f%%)\n" "no hub (obs = None)" r.oo_baseline
    r.oo_noise_pct;
  fprintf "%-28s %10.3fs  (%+.2f%%)\n" "disabled hub" r.oo_disabled (pct r.oo_disabled);
  fprintf "%-28s %10.3fs  (%+.2f%%)\n" "enabled hub" r.oo_enabled (pct r.oo_enabled);
  fprintf
    "contract: the disabled hub is the same one-branch call sites as no hub, so its\n\
     column must sit within the measured noise; the enabled hub pays per *chunk*,\n\
     never per access, so even live telemetry stays within a few percent.\n"

(* Fixed-work calibration probe: xorshift-addressed read-modify-writes
   over an 8 MiB array — deliberately the same shape of work as a
   signature probe/set (random access over a multi-MiB table), not a
   register spin.  On shared hosts the effective speed of a core drifts
   by tens of percent between runs (frequency scaling, steal, cache
   partition changes), and memory-bound loops drift differently from
   ALU loops; matching the probe's profile to the gated metric's lets
   the ratchet divide the drift out, while a real regression in the
   profiler's own code still moves the normalized value 1:1. *)
let measure_calib_spin_ns ?(repeats = 5) ?(iters = 4_000_000) () =
  let a = Array.make (1 lsl 20) 0 in
  let best = ref infinity in
  for _ = 1 to repeats do
    let s = ref 0x9E3779B9 in
    let t0 = Ddp_util.Clock.now () in
    for _ = 1 to iters do
      let x = !s in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = x lxor (x lsl 17) in
      s := x;
      let i = x land ((1 lsl 20) - 1) in
      Array.unsafe_set a i (Array.unsafe_get a i + 1)
    done;
    ignore (Sys.opaque_identity !s);
    let ns = 1e9 *. (Ddp_util.Clock.now () -. t0) /. float_of_int iters in
    if ns < !best then best := ns
  done;
  ignore (Sys.opaque_identity a.(0));
  !best

(* Pure worker-step cost, ns/event: pre-fill a virtual-mode single-worker
   pipeline (full chunks, queues, dispatch — but no domains, so no
   scheduler interference), then time nothing but the drain loop, where
   each [worker_step] pops and processes one chunk.  This isolates the
   per-event store work from producer routing and interpretation,
   making it the ratchet's most sensitive gate: a regression in the
   signature probe/set path moves this number almost 1:1
   (DDP_PERTURB_WORKER inflates exactly this loop, which is how the
   ratchet selftest proves the gate fires). *)
let measure_worker_step_ns ?(repeats = 24) ?(chunks = 196) () =
  let module PP = Ddp_core.Parallel_profiler in
  let module E = Ddp_minir.Event in
  let chunk_size = 1024 in
  let events = chunks * chunk_size in
  let config =
    {
      bench_config with
      Config.workers = 1;
      chunk_size;
      queue_capacity = chunks + 2;
      redistribution_interval = 0;
      (* Small signatures (256 KiB for both stores) so the drain runs
         from cache: with the default 16 MiB stores the number is
         dominated by physical-page luck (±20% between processes on
         shared hosts), which would drown the regressions this gate
         exists to catch.  The addr space is 0xFFFF, so 2^14 slots keep
         the same ~4:1 slot pressure as the big config. *)
      slots = 1 lsl 14;
    }
  in
  let loc = Ddp_minir.Loc.make ~file:1 ~line:1 in
  let best = ref infinity in
  (* repetition 0 is a discarded warmup: it faults in the signature
     arrays and brings the chunk pool and code paths into cache, which
     otherwise costs the first measured repetition ~10%. *)
  for rep = 0 to repeats do
    let t = PP.create ~virtual_mode:true config in
    PP.set_vsched t
      {
        PP.on_chunk = (fun _ -> ());
        (* With the queue sized to hold the whole pre-fill this never
           fires; kept as a safety valve so a config change degrades to a
           slightly-contaminated measurement instead of a livelock. *)
        on_stall =
          (fun (PP.Queue_full w | PP.Drain_wait w) -> ignore (PP.worker_step t w : bool));
      };
    let hooks = PP.hooks t in
    for i = 1 to events do
      if i land 3 = 0 then
        hooks.E.on_write ~addr:(i land 0xFFFF) ~loc ~var:0 ~thread:0 ~time:i ~locked:false
      else hooks.E.on_read ~addr:(i land 0xFFFF) ~loc ~var:0 ~thread:0 ~time:i ~locked:false
    done;
    let steps = ref 0 in
    let t0 = Ddp_util.Clock.now () in
    while PP.worker_step t 0 do
      incr steps
    done;
    let dt = Ddp_util.Clock.now () -. t0 in
    ignore (PP.finish t : PP.result);
    if rep > 0 && !steps > 0 then begin
      let ns = 1e9 *. dt /. float_of_int (!steps * chunk_size) in
      if ns < !best then best := ns
    end
  done;
  !best

(* ==== machine-readable bench snapshot ==================================== *)

let geomean l =
  match List.filter (fun x -> x > 0.0) l with
  | [] -> 0.0
  | l -> exp (Ddp_util.Stats.mean (Array.of_list (List.map log l)))

(* Per-event dispatch cost through the algebra's fused hot path: one
   memory event into (a) the shared null record, (b) a single-subscriber
   fusion (the subscriber's closures, physically), (c) a two-subscriber
   tee.  (b) within noise of a direct closure call is the bench-level
   witness of the no-boxing contract surviving the Handler layer. *)
let measure_dispatch_ns ?(repeats = 5) ?(events = 2_000_000) () =
  let module E = Ddp_minir.Event in
  let sink = ref 0 in
  let count =
    {
      E.on_read = (fun ~addr ~loc:_ ~var:_ ~thread:_ ~time:_ ~locked:_ -> sink := !sink + addr);
      on_write = (fun ~addr ~loc:_ ~var:_ ~thread:_ ~time:_ ~locked:_ -> sink := !sink + addr);
    }
  in
  let loc = Ddp_minir.Loc.make ~file:1 ~line:1 in
  let time_once (hooks : E.hooks) =
    let t0 = Ddp_util.Clock.now () in
    for i = 1 to events do
      hooks.E.on_read ~addr:(i land 0xFFFF) ~loc ~var:0 ~thread:0 ~time:i ~locked:false
    done;
    ignore (Sys.opaque_identity !sink);
    (Ddp_util.Clock.now () -. t0) *. 1e9 /. float_of_int events
  in
  (* Sub-ns/event measures over a few-ms window are at the mercy of one
     badly-timed preemption; min-of-k keeps them honest. *)
  let time hooks =
    let best = ref infinity in
    for _ = 1 to repeats do
      let t = time_once hooks in
      if t < !best then best := t
    done;
    !best
  in
  let null_ns = time E.null in
  let one = Ddp_minir.Handler.make ~memory:count () in
  let fused1_ns = time (Ddp_minir.Handler.fuse [ one ]) in
  let fused2_ns = time (Ddp_minir.Handler.fuse [ one; one ]) in
  (null_ns, fused1_ns, fused2_ns)

(* BENCH_profiler.json: the headline profiler numbers in one parseable
   file (geomean slowdowns vs native and vs serial, accounted peak bytes
   by category, per-event dispatch cost, telemetry overhead) for CI
   trend lines and EXPERIMENTS.md tables. *)
let bench_json () =
  H.header "BENCH_profiler.json: machine-readable profiler overhead snapshot";
  let module J = Ddp_obs.Json in
  let workloads = [ "c-ray"; "kmeans"; "md5"; "rgbyuv" ] in
  let config = seq_config ~workers:8 ~lock_free:true in
  let account = Ddp_util.Mem_account.create () in
  let rows =
    List.map
      (fun name ->
        let native = H.run_native (seq_prog name) in
        let serial =
          Ddp_core.Profiler.profile ~mode:"serial" ~config:bench_config (seq_prog name ())
        in
        let par =
          Ddp_core.Profiler.profile ~mode:"parallel" ~config ~account:(account, "deps")
            (seq_prog name ())
        in
        let dag =
          Ddp_core.Profiler.profile ~mode:"dag" ~config:bench_config (seq_prog name ())
        in
        let s_slow = serial.elapsed /. native.H.native_time in
        let p_slow = par.elapsed /. native.H.native_time in
        let d_slow = dag.elapsed /. native.H.native_time in
        fprintf "%-14s native %6.3fs  serial %6.2fx  parallel(8T wall) %6.2fx  dag %6.2fx\n"
          name native.H.native_time s_slow p_slow d_slow;
        ( name,
          J.Obj
            [
              ("accesses", J.Int native.H.events);
              ("native_s", J.Float native.H.native_time);
              ("serial_slowdown", J.Float s_slow);
              ("parallel_slowdown", J.Float p_slow);
              ("dag_slowdown", J.Float d_slow);
            ],
          (s_slow, p_slow, d_slow) ))
      workloads
  in
  let s_slows = List.map (fun (_, _, (s, _, _)) -> s) rows in
  let p_slows = List.map (fun (_, _, (_, p, _)) -> p) rows in
  let d_slows = List.map (fun (_, _, (_, _, d)) -> d) rows in
  let overhead = measure_obs_overhead () in
  let calib_spin_ns = measure_calib_spin_ns () in
  let worker_step_ns = measure_worker_step_ns () in
  let null_ns, fused1_ns, fused2_ns = measure_dispatch_ns () in
  let peaks =
    Ddp_util.Mem_account.fold account
      (fun cat ~current:_ ~peak acc -> (cat, J.Int peak) :: acc)
      []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let json =
    J.Obj
      [
        ("schema", J.Str "ddp-bench/2");
        ("calib_spin_ns", J.Float calib_spin_ns);
        ( "config",
          J.Obj
            [
              ("workers", J.Int config.Config.workers);
              ("chunk_size", J.Int config.Config.chunk_size);
              ("slots", J.Int config.Config.slots);
            ] );
        ("workloads", J.Obj (List.map (fun (n, j, _) -> (n, j)) rows));
        ( "geomean",
          J.Obj
            [
              ("serial_slowdown", J.Float (geomean s_slows));
              ("parallel_slowdown", J.Float (geomean p_slows));
              ("dag_slowdown", J.Float (geomean d_slows));
              ( "parallel_vs_serial",
                J.Float (geomean (List.map2 (fun p s -> p /. s) p_slows s_slows)) );
            ] );
        ( "peak_bytes",
          J.Obj (peaks @ [ ("total", J.Int (Ddp_util.Mem_account.total_peak account)) ]) );
        ("worker_step_ns", J.Float worker_step_ns);
        ( "dispatch_ns",
          J.Obj
            [
              ("null", J.Float null_ns);
              ("fused_1sub", J.Float fused1_ns);
              ("fused_tee2", J.Float fused2_ns);
            ] );
        ( "obs_overhead",
          J.Obj
            [
              ("baseline_s", J.Float overhead.oo_baseline);
              ("disabled_s", J.Float overhead.oo_disabled);
              ("enabled_s", J.Float overhead.oo_enabled);
              ( "disabled_pct",
                J.Float (100.0 *. ((overhead.oo_disabled /. overhead.oo_baseline) -. 1.0)) );
              ( "enabled_pct",
                J.Float (100.0 *. ((overhead.oo_enabled /. overhead.oo_baseline) -. 1.0)) );
              ("noise_pct", J.Float overhead.oo_noise_pct);
            ] );
      ]
  in
  let path = "BENCH_profiler.json" in
  J.to_file path json;
  fprintf
    "geomean: serial %.2fx, parallel(wall) %.2fx, dag %.2fx; telemetry disabled %+.2f%%, enabled %+.2f%% (noise %.2f%%)\n"
    (geomean s_slows) (geomean p_slows) (geomean d_slows)
    (100.0 *. ((overhead.oo_disabled /. overhead.oo_baseline) -. 1.0))
    (100.0 *. ((overhead.oo_enabled /. overhead.oo_baseline) -. 1.0))
    overhead.oo_noise_pct;
  fprintf "dispatch: null %.1f ns/ev, fused(1 sub) %.1f ns/ev, fused(tee 2) %.1f ns/ev\n"
    null_ns fused1_ns fused2_ns;
  fprintf "worker_step: %.1f ns/ev (virtual-mode drain, min of 3)\n" worker_step_ns;
  fprintf "written to %s\n" path

(* A seconds-scale subset of the snapshot for the ratchet selftest and
   short-budget CI: the micro metrics only (worker_step, dispatch,
   telemetry overhead) — no workload sweeps — written to
   _bench/BENCH_quick.json with the same schema and key layout as
   BENCH_profiler.json, so ratchet.exe reads either file. *)
let bench_json_quick () =
  H.header "BENCH_quick.json: micro-metrics-only snapshot (ratchet selftest / short CI)";
  let module J = Ddp_obs.Json in
  let calib_spin_ns = measure_calib_spin_ns () in
  let worker_step_ns = measure_worker_step_ns () in
  let overhead = measure_obs_overhead () in
  let null_ns, fused1_ns, fused2_ns = measure_dispatch_ns () in
  let json =
    J.Obj
      [
        ("schema", J.Str "ddp-bench/2");
        ("calib_spin_ns", J.Float calib_spin_ns);
        ("worker_step_ns", J.Float worker_step_ns);
        ( "dispatch_ns",
          J.Obj
            [
              ("null", J.Float null_ns);
              ("fused_1sub", J.Float fused1_ns);
              ("fused_tee2", J.Float fused2_ns);
            ] );
        ( "obs_overhead",
          J.Obj
            [
              ("baseline_s", J.Float overhead.oo_baseline);
              ("disabled_s", J.Float overhead.oo_disabled);
              ("enabled_s", J.Float overhead.oo_enabled);
              ( "disabled_pct",
                J.Float (100.0 *. ((overhead.oo_disabled /. overhead.oo_baseline) -. 1.0)) );
              ( "enabled_pct",
                J.Float (100.0 *. ((overhead.oo_enabled /. overhead.oo_baseline) -. 1.0)) );
              ("noise_pct", J.Float overhead.oo_noise_pct);
            ] );
      ]
  in
  (try Unix.mkdir "_bench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = "_bench/BENCH_quick.json" in
  J.to_file path json;
  fprintf
    "worker_step: %.1f ns/ev (calib spin %.2f ns/it); telemetry disabled %+.2f%%, enabled %+.2f%% (noise %.2f%%)\n"
    worker_step_ns calib_spin_ns
    (100.0 *. ((overhead.oo_disabled /. overhead.oo_baseline) -. 1.0))
    (100.0 *. ((overhead.oo_enabled /. overhead.oo_baseline) -. 1.0))
    overhead.oo_noise_pct;
  fprintf "written to %s\n" path

(* ==== bechamel micro-benchmarks ========================================== *)

let micro () =
  H.header "Micro-benchmarks of the profiler's hot kernels (bechamel)";
  let open Bechamel in
  let sig_store = Ddp_core.Sig_store.create ~slots:(1 lsl 16) () in
  let perfect = Ddp_core.Perfect_sig.create () in
  let hash = Ddp_baselines.Hash_profiler.create () in
  let dispatch = Ddp_core.Dispatch.create ~workers:8 ~sample:16 ~hot_set_size:10 in
  let chunk = Ddp_core.Chunk.create ~capacity:1024 in
  let spsc = Ddp_core.Spsc_queue.create ~capacity:8 ~dummy:chunk in
  let locked = Ddp_core.Locked_queue.create ~capacity:8 ~dummy:chunk in
  let counter = ref 0 in
  let next () =
    incr counter;
    !counter land 0xFFFF
  in
  let obs_hub = Ddp_obs.Obs.create ~domains:1 () in
  let dispatch_sink = ref 0 in
  let count_memory =
    {
      Ddp_minir.Event.on_read =
        (fun ~addr ~loc:_ ~var:_ ~thread:_ ~time:_ ~locked:_ -> dispatch_sink := !dispatch_sink + addr);
      on_write =
        (fun ~addr ~loc:_ ~var:_ ~thread:_ ~time:_ ~locked:_ -> dispatch_sink := !dispatch_sink + addr);
    }
  in
  let count_handler = Ddp_minir.Handler.make ~memory:count_memory () in
  let fused_one = Ddp_minir.Handler.fuse [ count_handler ] in
  let fused_tee = Ddp_minir.Handler.fuse [ count_handler; count_handler ] in
  let bench_loc = Ddp_minir.Loc.make ~file:1 ~line:1 in
  let tests =
    [
      Test.make ~name:"sig_store set+probe"
        (Staged.stage (fun () ->
             let a = next () in
             let c = Ddp_core.Sig_store.cell sig_store ~addr:a in
             Ddp_core.Sig_store.set_write sig_store c ~payload:1 ~time:a;
             (Ddp_core.Sig_store.lanes sig_store).(c)));
      Test.make ~name:"perfect_sig set+probe"
        (Staged.stage (fun () ->
             let a = next () in
             let c = Ddp_core.Perfect_sig.cell perfect ~addr:a in
             Ddp_core.Perfect_sig.set_write perfect c ~payload:1 ~time:a;
             (Ddp_core.Perfect_sig.lanes perfect).(c)));
      Test.make ~name:"hash_table set+probe"
        (Staged.stage (fun () ->
             let a = next () in
             Ddp_baselines.Hash_profiler.set hash ~addr:a ~payload:1 ~time:a;
             Ddp_baselines.Hash_profiler.probe hash ~addr:a));
      Test.make ~name:"dispatch route"
        (Staged.stage (fun () ->
             let a = next () in
             Ddp_core.Dispatch.note_access dispatch a;
             Ddp_core.Dispatch.worker_of dispatch a));
      Test.make ~name:"fused dispatch (1 sub)"
        (Staged.stage (fun () ->
             let a = next () in
             fused_one.Ddp_minir.Event.on_read ~addr:a ~loc:bench_loc ~var:0 ~thread:0 ~time:a
               ~locked:false));
      Test.make ~name:"fused dispatch (tee 2)"
        (Staged.stage (fun () ->
             let a = next () in
             fused_tee.Ddp_minir.Event.on_read ~addr:a ~loc:bench_loc ~var:0 ~thread:0 ~time:a
               ~locked:false));
      Test.make ~name:"spsc push+pop"
        (Staged.stage (fun () ->
             ignore (Ddp_core.Spsc_queue.try_push spsc chunk : bool);
             Ddp_core.Spsc_queue.try_pop spsc));
      Test.make ~name:"locked push+pop"
        (Staged.stage (fun () ->
             ignore (Ddp_core.Locked_queue.try_push locked chunk : bool);
             Ddp_core.Locked_queue.try_pop locked));
      Test.make ~name:"obs span disabled"
        (Staged.stage (fun () ->
             let module O = Ddp_obs.Obs in
             let t0 = O.now O.disabled in
             ignore (O.span O.disabled ~dom:0 O.Tag.Process ~arg:1 ~t0 : int)));
      Test.make ~name:"obs span enabled"
        (Staged.stage (fun () ->
             let module O = Ddp_obs.Obs in
             let t0 = O.now obs_hub in
             ignore (O.span obs_hub ~dom:0 O.Tag.Process ~arg:1 ~t0 : int)));
      Test.make ~name:"obs counter enabled"
        (Staged.stage (fun () ->
             Ddp_obs.Obs.incr obs_hub ~dom:0 Ddp_obs.Obs.C.events_processed));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~stabilize:true () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] -> fprintf "  %-26s %10.1f ns/op\n" name ns
          | Some _ | None -> fprintf "  %-26s (no estimate)\n" name)
        analyzed)
    tests;
  fprintf "(spsc vs locked push+pop is the per-chunk synchronization cost the paper's\n";
  fprintf " lock-free design removes from the pipeline's critical path.)\n"

(* ==== driver ============================================================= *)

let experiments =
  [
    ("table1", table1);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("table2", table2);
    ("fig9", fig9);
    ("eq2", eq2);
    ("merge", merge);
    ("ablate-baselines", ablate_baselines);
    ("ablate-war", ablate_war);
    ("ablate-redist", ablate_redist);
    ("ablate-sections", ablate_sections);
    ("obs-overhead", obs_overhead);
    ("json", bench_json);
    ("json-quick", bench_json_quick);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--list" args then
    List.iter (fun (name, _) -> print_endline name) experiments
  else begin
    let selected = List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args in
    let to_run =
      if selected = [] then experiments
      else
        List.map
          (fun name ->
            match List.assoc_opt name experiments with
            | Some fn -> (name, fn)
            | None ->
              Printf.eprintf "unknown experiment %s (use --list)\n" name;
              exit 1)
          selected
    in
    let t0 = Ddp_util.Clock.now () in
    List.iter (fun (_, fn) -> fn ()) to_run;
    Printf.printf "\ntotal bench time: %.1fs\n" (Ddp_util.Clock.now () -. t0)
  end
