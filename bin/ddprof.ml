(* ddprof — command-line front end to the data-dependence profiler.

     ddprof list
     ddprof list-modes
     ddprof run kmeans --mode parallel --workers 8 --report
     ddprof run kmeans --mode shadow --record /tmp/kmeans.trace
     ddprof run water-spatial --variant par --mt --report --show-threads
     ddprof replay --trace /tmp/kmeans.trace --mode hashtable
     ddprof loops cg
     ddprof comm water-spatial --target-threads 4
     ddprof races streamcluster *)

open Cmdliner

(* Baseline engines (shadow/hashtable/stride) live in a separate library;
   registration must be forced before mode names resolve. *)
let () = Ddp_baselines.Baseline_engines.register ()

let get_program ~variant ~target_threads ~scale name =
  let w = Ddp_workloads.Registry.find name in
  match variant with
  | `Seq -> w.Ddp_workloads.Wl.seq ~scale
  | `Par -> (
    match w.Ddp_workloads.Wl.par with
    | Some par -> par ~threads:target_threads ~scale
    | None -> failwith (Printf.sprintf "workload %s has no parallel (pthread-style) variant" name))

(* -- common args --------------------------------------------------------- *)

let name_arg =
  let doc = "Workload name (see `ddprof list')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let scale_arg =
  Arg.(value & opt int 1 & info [ "scale" ] ~docv:"K" ~doc:"Problem-size multiplier.")

let variant_arg =
  let v = Arg.enum [ ("seq", `Seq); ("par", `Par) ] in
  Arg.(value & opt v `Seq & info [ "variant" ] ~docv:"V" ~doc:"Target variant: seq or par (pthread-style).")

let target_threads_arg =
  Arg.(value & opt int 4 & info [ "target-threads" ] ~docv:"N" ~doc:"Threads of the parallel target program.")

let workers_arg =
  Arg.(value & opt int 8 & info [ "workers" ] ~docv:"W" ~doc:"Profiling worker threads (parallel mode).")

let queue_capacity_arg =
  Arg.(
    value
    & opt int Ddp_core.Config.default.Ddp_core.Config.queue_capacity
    & info [ "queue-capacity" ] ~docv:"N"
        ~doc:
          "Bounded chunk-queue capacity per worker.  Small values congest the pipeline — useful \
           with the lossy --backpressure policies.")

let slots_arg =
  Arg.(value & opt int (1 lsl 20) & info [ "slots" ] ~docv:"M" ~doc:"Total signature slots per direction.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Scheduler seed.")

let mode_arg =
  let doc = "Profiler engine (see `ddprof list-modes')." in
  Arg.(value & opt string "serial" & info [ "mode" ] ~docv:"MODE" ~doc)

(* Queue-full policy: block | drop-new | drop-oldest | sample:<p>. *)
let backpressure_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "block" -> Ok Ddp_core.Config.Block
    | "drop-new" -> Ok Ddp_core.Config.Drop_new
    | "drop-oldest" -> Ok Ddp_core.Config.Drop_oldest
    | s when String.length s > 7 && String.sub s 0 7 = "sample:" -> (
      let p = String.sub s 7 (String.length s - 7) in
      match float_of_string_opt p with
      | Some p when p >= 0.0 && p <= 1.0 -> Ok (Ddp_core.Config.Sample p)
      | _ -> Error (`Msg (Printf.sprintf "bad sample probability %S (want sample:<p> with 0<=p<=1)" p)))
    | _ ->
      Error
        (`Msg
          (Printf.sprintf "unknown backpressure policy %S (block|drop-new|drop-oldest|sample:<p>)" s))
  in
  let print ppf = function
    | Ddp_core.Config.Block -> Format.pp_print_string ppf "block"
    | Ddp_core.Config.Drop_new -> Format.pp_print_string ppf "drop-new"
    | Ddp_core.Config.Drop_oldest -> Format.pp_print_string ppf "drop-oldest"
    | Ddp_core.Config.Sample p -> Format.fprintf ppf "sample:%g" p
  in
  Arg.conv ~docv:"POLICY" (parse, print)

let backpressure_arg =
  Arg.(
    value
    & opt backpressure_conv Ddp_core.Config.Block
    & info [ "backpressure" ] ~docv:"POLICY"
        ~doc:
          "Queue-full policy for the parallel pipeline: $(b,block) (wait, lossless), \
           $(b,drop-new), $(b,drop-oldest) (needs --lock-based) or $(b,sample:)$(i,P) (shed each \
           overflowing chunk with probability P).  Anything but block degrades the run to a \
           partial result with exact loss accounting.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Abort profiling after SECS seconds and salvage whatever the workers completed (the \
           result is marked partial).")

let check_backpressure (config : Ddp_core.Config.t) =
  match config.backpressure with
  | Ddp_core.Config.Drop_oldest when config.lock_free ->
    Printf.eprintf "--backpressure drop-oldest requires --lock-based queues\n";
    exit 1
  | _ -> ()

(* Partial results are still printed in full (that is the point of the
   salvage path), but the process exits 3 so scripts can tell a degraded
   run from a complete one. *)
let conclude (outcome : Ddp_core.Profiler.outcome) =
  if Ddp_core.Health.is_partial outcome.health then begin
    print_newline ();
    print_endline (Ddp_core.Health.to_string outcome.health);
    exit 3
  end

let check_mode mode =
  match Ddp_core.Engine.find mode with
  | Some _ -> ()
  | None ->
    Printf.eprintf "unknown mode %s; registered modes:\n" mode;
    List.iter (fun (name, _) -> Printf.eprintf "  %s\n" name) (Ddp_core.Profiler.modes ());
    exit 1

(* -- shared outcome summary ----------------------------------------------- *)

let summarize ?account (outcome : Ddp_core.Profiler.outcome) =
  let raw, war, waw, init, races = Ddp_core.Report.kind_counts outcome.deps in
  Printf.printf "dependences: %d distinct (RAW %d, WAR %d, WAW %d, INIT %d), %d race-flagged\n"
    (Ddp_core.Dep_store.distinct outcome.deps) raw war waw init races;
  Printf.printf "merge factor: %.1fx (%d occurrences folded)\n"
    (Ddp_core.Dep_store.merge_factor outcome.deps)
    (Ddp_core.Dep_store.total_occurrences outcome.deps);
  Printf.printf "engine %s: %.2f MiB access-store footprint\n" outcome.engine
    (float_of_int outcome.store_bytes /. 1048576.0);
  if outcome.mt_delayed > 0 then
    Printf.printf "mt push layer: %d accesses delayed\n" outcome.mt_delayed;
  Printf.printf "instrumented wall time: %.3fs\n" outcome.elapsed;
  (match outcome.parallel with
  | Some r ->
    Printf.printf "parallel: %d chunks, %d redistributions, worker events: [%s]\n" r.chunks
      r.redistributions
      (String.concat "; " (Array.to_list (Array.map string_of_int r.per_worker_events)))
  | None -> ());
  (match outcome.extra with
  | Ddp_core.Engines.Hybrid { pruned_events; pruned_sites } ->
    Printf.printf "hybrid: %d access events skipped at %d statically pruned sites\n"
      pruned_events pruned_sites
  | Ddp_core.Engines.Dag { strands; spawns; joins } ->
    Printf.printf "sp-dag: %d strands over %d spawns / %d joins; race flags are schedule-independent\n"
      strands spawns joins
  | Ddp_core.Engines.Hybrid_dag { pruned_events; pruned_sites; inner } ->
    Printf.printf "hybrid-dag: %d access events skipped at %d statically pruned sites\n"
      pruned_events pruned_sites;
    (match inner with
    | Ddp_core.Engines.Dag { strands; spawns; joins } ->
      Printf.printf
        "sp-dag: %d strands over %d spawns / %d joins; race flags are schedule-independent\n"
        strands spawns joins
    | _ -> ())
  | _ -> ());
  match account with
  | Some acct ->
    Format.printf "memory (accounted):@.%a" (fun ppf () -> Ddp_util.Mem_account.report ppf acct) ()
  | None -> ()

(* -- telemetry helpers ----------------------------------------------------- *)

(* The hub needs one cell per pipeline domain: producer + workers for the
   parallel engine, a single domain for everything else. *)
let obs_domains ~mode ~workers = if mode = "parallel" then workers + 1 else 1

(* Any self-profiling feature wants a hub; allocation tracking only when
   the per-stage table was asked for (it is wall-world state and costs
   two Gc counter reads per span boundary). *)
let make_obs ~mode ~workers ~track_alloc ~wanted =
  if not wanted then None
  else Some (Ddp_obs.Obs.create ~domains:(obs_domains ~mode ~workers) ~track_alloc ())

(* Process-global allocation so far, in bytes: the external measurement
   the per-stage attribution table is cross-checked against. *)
let gc_alloc_bytes () =
  let gs = Gc.quick_stat () in
  int_of_float
    ((gs.Gc.minor_words +. gs.Gc.major_words -. gs.Gc.promoted_words)
    *. float_of_int (Sys.word_size / 8))

let export_obs ?(gc = []) ~account ~trace_out ~metrics_out ~extra obs =
  match obs with
  | None -> ()
  | Some obs ->
    let snap = Ddp_obs.Obs.snapshot obs in
    (match trace_out with
    | Some path ->
      Ddp_obs.Json.to_file path (Ddp_obs.Export.chrome_trace ~gc snap);
      Printf.printf "chrome trace written to %s (load in ui.perfetto.dev)\n" path
    | None -> ());
    (match metrics_out with
    | Some path ->
      Ddp_obs.Json.to_file path (Ddp_obs.Export.metrics_json ?account ~extra snap);
      Printf.printf "metrics written to %s\n" path
    | None -> ())

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace-event JSON of the profiling pipeline to FILE.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE" ~doc:"Write a flat metrics JSON snapshot to FILE.")

let memprof_rate_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "memprof-rate" ] ~docv:"RATE"
        ~doc:
          "Enable per-stage allocation attribution and print the allocation table after the run. \
           RATE is the statmemprof sampling rate (e.g. 0.001 = one sample per ~1000 words); the \
           span-boundary Gc accounting runs regardless, so the table is exact even where \
           statmemprof is unavailable (multicore runtimes).")

let runtime_events_arg =
  Arg.(
    value & flag
    & info [ "runtime-events" ]
        ~doc:
          "Subscribe to the OCaml runtime-events ring and fuse GC phase spans into the \
           --trace-out Chrome trace (tracks gc ring N).")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:"Show a live status line (events/s, queue occupancy, drops, ETA) on stderr.")

let progress_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "progress-out" ] ~docv:"FILE"
        ~doc:"Append one NDJSON progress sample per interval to FILE (schema ddp-progress/1).")

let progress_interval_arg =
  Arg.(
    value
    & opt float 0.5
    & info [ "progress-interval" ] ~docv:"SECONDS" ~doc:"Progress sampling interval (default 0.5s).")

(* -- run ------------------------------------------------------------------ *)

let run_cmd =
  let opt_name_arg =
    let doc = "Workload name (see `ddprof list'); omit with --foreign." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)
  in
  let foreign_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "foreign" ] ~docv:"FILE"
          ~doc:
            "Profile a foreign lackey-style trace (L/S/M access lines, A/F allocation lines, \
             optional attribution markers) instead of a workload.  The imported stream carries \
             only the Memory and Alloc event classes and runs through any --mode unchanged.")
  in
  let mt_arg =
    Arg.(value & flag & info [ "mt" ] ~doc:"Enable multi-threaded-target machinery (Sec. V).")
  in
  let report_arg = Arg.(value & flag & info [ "report" ] ~doc:"Print the Fig.-1-style dependence report.") in
  let show_threads_arg =
    Arg.(value & flag & info [ "show-threads" ] ~doc:"Include thread ids in the report (Fig. 3 format).")
  in
  let lock_based_arg =
    Arg.(value & flag & info [ "lock-based" ] ~doc:"Use mutex queues instead of lock-free SPSC.")
  in
  let record_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:"Record the instrumentation stream to FILE while profiling (one pass).")
  in
  let run name foreign scale variant target_threads mode mt workers slots seed report
      show_threads lock_based record backpressure deadline queue_capacity trace_out metrics_out
      memprof_rate runtime_events progress progress_out progress_interval =
    check_mode mode;
    let name, prog =
      match (name, foreign) with
      | Some name, None -> (name, Some (get_program ~variant ~target_threads ~scale name))
      | None, Some path -> ("foreign:" ^ path, None)
      | Some _, Some _ ->
        Printf.eprintf "ddprof run: give either a WORKLOAD or --foreign FILE, not both\n";
        exit 2
      | None, None ->
        Printf.eprintf "ddprof run: WORKLOAD required (or pass --foreign FILE)\n";
        exit 2
    in
    (* The hybrid engines need their pruning plan up front: the static
       analysis decides which variables are dependence-free, and their
       pre-interned ids ride in on the config.  A foreign trace has no
       program to analyze, so they degenerate to their inner engine
       (empty prune list). *)
    let plan =
      match (mode, prog) with
      | ("hybrid" | "hybrid-dag"), Some prog -> Some (Ddp_static.Hybrid.plan prog)
      | _ -> None
    in
    let config =
      {
        Ddp_core.Config.default with
        workers;
        slots;
        seed;
        lock_free = not lock_based;
        backpressure;
        deadline;
        queue_capacity;
        static_prune =
          (match plan with Some p -> p.Ddp_static.Hybrid.prune_ids | None -> []);
        memprof_rate;
      }
    in
    check_backpressure config;
    (match plan with
    | Some p when p.Ddp_static.Hybrid.prune_names <> [] ->
      Printf.printf "static prune plan: %s\n"
        (String.concat " " p.Ddp_static.Hybrid.prune_names)
    | Some _ -> print_endline "static prune plan: (no variable proved dependence-free)"
    | None -> ());
    let account = Ddp_util.Mem_account.create () in
    (* SIGINT/SIGTERM mid-record must not leave a stale FILE.tmp *)
    if record <> None then Ddp_util.Tmp_file.install_signal_cleanup ();
    let recording = Option.map (fun path -> Ddp_minir.Trace_file.start_recording ~path) record in
    let tee = Option.map Ddp_minir.Trace_file.recording_hooks recording in
    let track_alloc = memprof_rate > 0.0 in
    let obs =
      make_obs ~mode ~workers ~track_alloc
        ~wanted:
          (trace_out <> None || metrics_out <> None || track_alloc || progress
          || progress_out <> None || runtime_events)
    in
    let source =
      match (prog, foreign) with
      | Some prog, _ ->
        Ddp_core.Source.live ~sched_seed:seed
          ?symtab:(Option.map (fun p -> p.Ddp_static.Hybrid.symtab) plan)
          prog
      | None, Some path -> Ddp_core.Source.of_foreign ~path
      | None, None -> assert false
    in
    (* Runtime-events consumer attaches before the run so the GC phases
       of engine construction are captured too; degrades to a warning on
       runtimes without the instrumented-ring support. *)
    let rtev = if runtime_events then Ddp_obs.Runtime_ev.start () else None in
    if runtime_events && rtev = None then
      prerr_endline "ddprof: --runtime-events requested but unavailable on this runtime";
    let progress_out_oc = Option.map open_out progress_out in
    let prog_handle =
      match obs with
      | Some o when progress || progress_out_oc <> None ->
        let status =
          if progress then
            Some
              (fun s ->
                output_string stderr s;
                flush stderr)
          else None
        in
        Some
          (Ddp_obs.Progress.start ~interval:progress_interval ?status ?out:progress_out_oc o)
      | _ -> None
    in
    (* Bracket the run with process-global Gc readings: the attribution
       table's coverage is judged against this external delta. *)
    let gc0 = gc_alloc_bytes () in
    let outcome =
      try Ddp_core.Profiler.run ~mode ~config ~mt ?obs ~account:(account, "deps") ?tee source
      with e ->
        (* A crashed run must not publish a truncated trace: the recording
           stays in its .tmp file and is deleted here. *)
        let bt = Printexc.get_raw_backtrace () in
        Option.iter Ddp_minir.Trace_file.abort_recording recording;
        Option.iter Ddp_obs.Progress.stop prog_handle;
        Option.iter close_out progress_out_oc;
        Printexc.raise_with_backtrace e bt
    in
    let gc_delta = gc_alloc_bytes () - gc0 in
    Option.iter Ddp_obs.Progress.stop prog_handle;
    Option.iter close_out progress_out_oc;
    (match (progress_out, progress_out_oc) with
    | Some path, Some _ -> Printf.printf "progress samples written to %s\n" path
    | _ -> ());
    let gc_phases =
      match (rtev, obs) with
      | Some r, Some o ->
        (* Runtime-events timestamps share the CLOCK_MONOTONIC base with
           the hub's clock; rebasing by the hub epoch puts the GC phases
           on the same Chrome-trace timeline as the pipeline spans. *)
        let epoch = Ddp_obs.Obs.epoch_ns o in
        List.map
          (fun (p : Ddp_obs.Runtime_ev.phase) -> { p with Ddp_obs.Runtime_ev.ts_ns = p.ts_ns - epoch })
          (Ddp_obs.Runtime_ev.finish r)
      | Some r, None -> ignore (Ddp_obs.Runtime_ev.finish r : Ddp_obs.Runtime_ev.phase list); []
      | None, _ -> []
    in
    (match rtev with
    | Some r ->
      Printf.printf "runtime-events: %d gc phase spans captured%s\n" (List.length gc_phases)
        (let l = Ddp_obs.Runtime_ev.lost r in
         if l > 0 then Printf.sprintf " (%d events lost)" l else "")
    | None -> ());
    (match (recording, record) with
    | Some r, Some path ->
      Ddp_minir.Trace_file.finish_recording r outcome.symtab;
      Printf.printf "trace written to %s\n" path
    | _ -> ());
    Printf.printf "workload %s (%s): %d accesses over %d addresses, %d lines\n" name
      (match (prog, variant) with
      | None, _ -> "foreign"
      | Some _, `Seq -> "seq"
      | Some _, `Par -> "par")
      outcome.run_stats.accesses outcome.run_stats.addresses outcome.run_stats.lines;
    summarize ~account outcome;
    List.iter (fun n -> Printf.printf "note: %s\n" n) outcome.notes;
    (match obs with
    | Some o when Ddp_obs.Obs.alloc_tracked o ->
      Ddp_obs.Export.pp_alloc_table ~total_bytes:gc_delta Format.std_formatter
        (Ddp_obs.Obs.snapshot o)
    | _ -> ());
    export_obs ~gc:gc_phases ~account:(Some account) ~trace_out ~metrics_out
      ~extra:
        [
          ("engine", Ddp_obs.Json.Str mode);
          ("workload", Ddp_obs.Json.Str name);
          ("seed", Ddp_obs.Json.Int seed);
        ]
      obs;
    if report then begin
      print_newline ();
      print_string (Ddp_core.Profiler.report ~show_threads outcome)
    end;
    conclude outcome
  in
  let term =
    Term.(
      const run $ opt_name_arg $ foreign_arg $ scale_arg $ variant_arg $ target_threads_arg
      $ mode_arg $ mt_arg $ workers_arg $ slots_arg $ seed_arg $ report_arg $ show_threads_arg
      $ lock_based_arg $ record_arg $ backpressure_arg $ deadline_arg $ queue_capacity_arg
      $ trace_out_arg $ metrics_out_arg $ memprof_rate_arg $ runtime_events_arg $ progress_arg
      $ progress_out_arg $ progress_interval_arg)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Profile a workload (or a --foreign trace) and summarize its dependences.")
    term

(* -- list ----------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (w : Ddp_workloads.Wl.t) ->
        Printf.printf "%-14s %-10s %s%s\n" w.name
          (Ddp_workloads.Wl.suite_name w.suite)
          w.description
          (if w.par <> None then "  [has par variant]" else ""))
      Ddp_workloads.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available workloads.") Term.(const run $ const ())

(* -- list-modes ------------------------------------------------------------ *)

let list_modes_cmd =
  let run () =
    List.iter
      (fun (e : Ddp_core.Engine.t) ->
        Printf.printf "%-10s %-24s %s%s\n" e.name
          (Ddp_minir.Handler.pp_class_list e.consumes)
          e.description
          (if e.exact then "  [exact]" else ""))
      (Ddp_core.Engine.all ())
  in
  Cmd.v
    (Cmd.info "list-modes"
       ~doc:"List registered profiling engines (the --mode values) and the event classes each consumes.")
    Term.(const run $ const ())

(* -- loops ---------------------------------------------------------------- *)

let loops_cmd =
  let perfect_arg = Arg.(value & flag & info [ "perfect" ] ~doc:"Use the perfect-signature oracle.") in
  let run name scale perfect slots =
    let w = Ddp_workloads.Registry.find name in
    let prog = w.Ddp_workloads.Wl.seq ~scale in
    let config = { Ddp_core.Config.default with slots } in
    let summary = Ddp_analyses.Loop_parallelism.analyze ~config ~perfect prog in
    Ddp_analyses.Loop_parallelism.pp_summary Format.std_formatter summary
  in
  Cmd.v
    (Cmd.info "loops" ~doc:"Classify loops as parallelizable (the Table II analysis).")
    Term.(const run $ name_arg $ scale_arg $ perfect_arg $ slots_arg)

(* -- comm ----------------------------------------------------------------- *)

let comm_cmd =
  let run name scale target_threads seed =
    let prog = get_program ~variant:`Par ~target_threads ~scale name in
    let outcome = Ddp_core.Profiler.profile ~mode:"serial" ~mt:true ~sched_seed:seed prog in
    let m = Ddp_analyses.Comm_pattern.of_deps outcome.deps in
    print_string
      (Ddp_analyses.Comm_pattern.render (Ddp_analyses.Comm_pattern.workers_only m));
    Printf.printf "total cross-thread RAW volume: %.0f\n"
      (Ddp_analyses.Comm_pattern.total_volume m)
  in
  Cmd.v
    (Cmd.info "comm" ~doc:"Producer/consumer communication matrix (the Fig. 9 analysis).")
    Term.(const run $ name_arg $ scale_arg $ target_threads_arg $ seed_arg)

(* -- record / replay ------------------------------------------------------ *)

let path_arg =
  Arg.(required & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc:"Trace file path.")

let record_cmd =
  let run name scale variant target_threads seed path =
    let prog = get_program ~variant ~target_threads ~scale name in
    Ddp_util.Tmp_file.install_signal_cleanup ();
    Ddp_minir.Trace_file.record ~sched_seed:seed ~path prog;
    Printf.printf "trace written to %s\n" path
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Record a workload's instrumentation stream to a trace file.")
    Term.(const run $ name_arg $ scale_arg $ variant_arg $ target_threads_arg $ seed_arg $ path_arg)

let replay_cmd =
  let report_arg = Arg.(value & flag & info [ "report" ] ~doc:"Print the dependence report.") in
  let run path mode slots backpressure deadline report =
    check_mode mode;
    let config = { Ddp_core.Config.default with slots; backpressure; deadline } in
    check_backpressure config;
    let outcome = Ddp_core.Profiler.run ~mode ~config (Ddp_core.Source.of_trace ~path) in
    Printf.printf "replayed %s through engine %s: %d accesses over %d addresses\n" path mode
      outcome.run_stats.accesses outcome.run_stats.addresses;
    summarize outcome;
    if report then begin
      print_newline ();
      print_string (Ddp_core.Profiler.report outcome)
    end;
    conclude outcome
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Profile a previously recorded trace under any engine (collect once, analyze many).")
    Term.(const run $ path_arg $ mode_arg $ slots_arg $ backpressure_arg $ deadline_arg $ report_arg)

(* -- foreign-export / foreign-diff ---------------------------------------- *)

(* Collect a workload's native stream and keep only what the lackey
   dialect can express (Memory + Alloc classes, with attribution
   markers).  The exported file round-trips: dependence keys carry no
   timestamps, so re-importing reproduces the native dep set exactly. *)
let collect_events ~variant ~target_threads ~scale ~seed name =
  let prog = get_program ~variant ~target_threads ~scale name in
  let hooks, get = Ddp_minir.Event.collector () in
  let symtab = Ddp_minir.Symtab.create () in
  let (_ : Ddp_minir.Interp.stats) =
    Ddp_minir.Interp.run ~hooks ~sched_seed:seed ~symtab prog
  in
  (get (), symtab)

let foreign_export_cmd =
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the lackey-style trace to FILE.")
  in
  let run name scale variant target_threads seed out =
    let events, symtab = collect_events ~variant ~target_threads ~scale ~seed name in
    Ddp_minir.Foreign.export ~path:out events symtab;
    let expressible =
      List.length
        (List.filter
           (fun e ->
             match Ddp_minir.Event.class_of e with
             | Ddp_minir.Event.Class.Memory | Ddp_minir.Event.Class.Alloc -> true
             | _ -> false)
           events)
    in
    Printf.printf "foreign trace written to %s (%d of %d events expressible in the dialect)\n"
      out expressible (List.length events)
  in
  Cmd.v
    (Cmd.info "foreign-export"
       ~doc:
         "Export a workload's instrumentation stream as a lackey-style foreign trace (Memory and \
          Alloc classes only, with attribution markers).")
    Term.(const run $ name_arg $ scale_arg $ variant_arg $ target_threads_arg $ seed_arg $ out_arg)

let foreign_diff_cmd =
  let run name scale variant target_threads seed mode slots path =
    check_mode mode;
    let config = { Ddp_core.Config.default with slots; seed } in
    let prog = get_program ~variant ~target_threads ~scale name in
    let native =
      Ddp_core.Profiler.run ~mode ~config (Ddp_core.Source.live ~sched_seed:seed prog)
    in
    let imported =
      Ddp_core.Profiler.run ~mode ~config (Ddp_core.Source.of_foreign ~path)
    in
    let native_keys = Ddp_core.Dep_store.key_set native.deps in
    let imported_keys = Ddp_core.Dep_store.key_set imported.deps in
    let module KS = Ddp_core.Dep_store.Key_set in
    Printf.printf "engine %s: native %d deps, imported %d deps\n" mode
      (KS.cardinal native_keys) (KS.cardinal imported_keys);
    if KS.equal native_keys imported_keys then
      print_endline "foreign-diff: dependence sets identical"
    else begin
      let missing = KS.diff native_keys imported_keys in
      let spurious = KS.diff imported_keys native_keys in
      Printf.printf "foreign-diff: MISMATCH (%d missing, %d spurious)\n" (KS.cardinal missing)
        (KS.cardinal spurious);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "foreign-diff"
       ~doc:
         "Profile WORKLOAD natively and via an exported foreign trace (--trace) under the same \
          engine, and fail unless the dependence sets are identical.")
    Term.(
      const run $ name_arg $ scale_arg $ variant_arg $ target_threads_arg $ seed_arg $ mode_arg
      $ slots_arg $ path_arg)

(* -- distance -------------------------------------------------------------- *)

let distance_cmd =
  let run name scale =
    let w = Ddp_workloads.Registry.find name in
    let summary = Ddp_analyses.Dep_distance.analyze (w.Ddp_workloads.Wl.seq ~scale) in
    print_string (Ddp_analyses.Dep_distance.render summary)
  in
  Cmd.v
    (Cmd.info "distance" ~doc:"Loop-carried dependence distances per loop.")
    Term.(const run $ name_arg $ scale_arg)

(* -- calltree --------------------------------------------------------------- *)

let calltree_cmd =
  let full_arg =
    Arg.(value & flag & info [ "exec-tree" ] ~doc:"Show the full execution tree (loops included).")
  in
  let run name scale full =
    let w = Ddp_workloads.Registry.find name in
    let tree, symtab = Ddp_analyses.Exec_tree.build (w.Ddp_workloads.Wl.seq ~scale) in
    let func_name = Ddp_minir.Symtab.var_name symtab in
    let node =
      if full then Ddp_analyses.Exec_tree.root tree else Ddp_analyses.Exec_tree.call_tree tree
    in
    print_string (Ddp_analyses.Exec_tree.render ~func_name node)
  in
  Cmd.v
    (Cmd.info "calltree" ~doc:"Call tree (or full dynamic execution tree) of a workload run.")
    Term.(const run $ name_arg $ scale_arg $ full_arg)

(* -- graph ---------------------------------------------------------------- *)

let graph_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Write Graphviz to FILE.")
  in
  let sections_arg =
    Arg.(value & flag & info [ "sections" ] ~doc:"Collapse statements into loop regions (set-based granularity).")
  in
  let run name scale sections out =
    let w = Ddp_workloads.Registry.find name in
    let prog = w.Ddp_workloads.Wl.seq ~scale in
    let summary = Ddp_analyses.Loop_parallelism.analyze ~perfect:true prog in
    let outcome = Ddp_core.Profiler.profile ~mode:"serial" prog in
    let g = Ddp_analyses.Dep_graph.of_store outcome.deps in
    let g =
      if sections then Ddp_analyses.Dep_graph.collapse_to_regions ~regions:outcome.regions g
      else g
    in
    Printf.printf "dependence graph: %d nodes, %d edges\n" (Ddp_analyses.Dep_graph.node_count g)
      (Ddp_analyses.Dep_graph.edge_count g);
    print_string
      (Ddp_analyses.Loop_table.render (Ddp_analyses.Loop_table.of_regions ~summary outcome.regions));
    match out with
    | Some file ->
      let oc = open_out file in
      output_string oc (Ddp_analyses.Dep_graph.to_dot ~name g);
      close_out oc;
      Printf.printf "Graphviz written to %s\n" file
    | None -> ()
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Dependence graph + loop table (the framework representations).")
    Term.(const run $ name_arg $ scale_arg $ sections_arg $ out_arg)

(* -- stats ----------------------------------------------------------------- *)

let stats_cmd =
  (* Offline mode: summarize a previously saved --metrics-out file.  The
     schema gate is strict — a file written by an older/newer ddprof is
     rejected with the expected/found versions, not half-parsed. *)
  let stats_from path =
    let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "ddprof stats: %s\n" s; exit 1) fmt in
    let j =
      try Ddp_obs.Json.of_file path with
      | Ddp_obs.Json.Parse_error msg -> fail "%s: JSON parse error: %s" path msg
      | Sys_error msg -> fail "%s" msg
    in
    (match Ddp_obs.Export.check_schema j with
    | Error msg -> fail "%s: %s" path msg
    | Ok () -> ());
    let int_field name = Option.bind (Ddp_obs.Json.member name j) Ddp_obs.Json.to_int in
    let counter name =
      match Option.bind (Ddp_obs.Json.member "counters" j) (Ddp_obs.Json.member name) with
      | Some v -> Option.value ~default:0 (Ddp_obs.Json.to_int v)
      | None -> 0
    in
    Printf.printf "metrics file %s (schema %s)\n" path Ddp_obs.Export.schema_version;
    Printf.printf "  domains              %d\n" (Option.value ~default:0 (int_field "domains"));
    Printf.printf "  events processed     %d\n" (counter "events_processed");
    Printf.printf "  chunks pushed        %d (%d events routed)\n" (counter "chunks_pushed")
      (counter "chunk_events");
    Printf.printf "  stalls               %d queue-full, %d drain (%d ns stalled)\n"
      (counter "queue_full_stalls") (counter "drain_stalls") (counter "stall_ns");
    Printf.printf "  redistributions      %d (%d addresses migrated)\n" (counter "redistributions")
      (counter "migrated_addrs");
    Printf.printf "  dropped trace events %d\n"
      (Option.value ~default:0 (int_field "dropped_events"));
    match Option.bind (Ddp_obs.Json.member "alloc" j) (Ddp_obs.Json.member "attributed_bytes") with
    | Some v ->
      Printf.printf "  attributed alloc     %d bytes\n" (Option.value ~default:0 (Ddp_obs.Json.to_int v))
    | None -> ()
  in
  let run name from scale variant target_threads mode workers slots seed trace_out metrics_out =
    match (from, name) with
    | Some path, _ -> stats_from path
    | None, None ->
      Printf.eprintf "ddprof stats: WORKLOAD required (or pass --from FILE)\n";
      exit 2
    | None, Some name ->
    check_mode mode;
    let prog = get_program ~variant ~target_threads ~scale name in
    let config = { Ddp_core.Config.default with workers; slots; seed } in
    let account = Ddp_util.Mem_account.create () in
    let obs = Ddp_obs.Obs.create ~domains:(obs_domains ~mode ~workers) () in
    let outcome =
      Ddp_core.Profiler.run ~mode ~config ~obs ~account:(account, "deps")
        (Ddp_core.Source.live ~sched_seed:seed prog)
    in
    Printf.printf "workload %s, engine %s: %d accesses, %d distinct dependences\n" name mode
      outcome.run_stats.accesses
      (Ddp_core.Dep_store.distinct outcome.deps);
    let snap = Ddp_obs.Obs.snapshot obs in
    Ddp_obs.Export.pp_summary Format.std_formatter snap;
    export_obs ~account:(Some account) ~trace_out ~metrics_out
      ~extra:
        [
          ("engine", Ddp_obs.Json.Str mode);
          ("workload", Ddp_obs.Json.Str name);
          ("seed", Ddp_obs.Json.Int seed);
        ]
      (Some obs)
  in
  let mode_arg =
    Arg.(value & opt string "parallel" & info [ "mode" ] ~docv:"MODE"
           ~doc:"Profiler engine (default parallel: pipeline telemetry).")
  in
  let opt_name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD" ~doc:"Workload name (omit with --from).")
  in
  let from_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "from" ] ~docv:"FILE"
          ~doc:
            "Summarize a previously saved --metrics-out FILE instead of running a workload.  \
             Fails (exit 1) if the file's schema version does not match this ddprof.")
  in
  let term =
    Term.(
      const run $ opt_name_arg $ from_arg $ scale_arg $ variant_arg $ target_threads_arg
      $ mode_arg $ workers_arg $ slots_arg $ seed_arg $ trace_out_arg $ metrics_out_arg)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Profile a workload with telemetry on and print the pipeline summary (stalls, load \
          imbalance, redistribution timeline), or summarize a saved metrics file (--from).")
    term

(* -- check-trace ------------------------------------------------------------ *)

(* Validate a Chrome trace-event file: parses, has events, and (with
   --workers) every worker track carries at least one complete span.
   Used by the CI smoke job. *)
let check_trace_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Chrome trace JSON file.")
  in
  let check_workers_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"W"
          ~doc:"Require at least one complete span on each worker track 1..W.")
  in
  let run file workers =
    let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "check-trace: %s\n" s; exit 1) fmt in
    let j =
      try Ddp_obs.Json.of_file file with
      | Ddp_obs.Json.Parse_error msg -> fail "%s: JSON parse error: %s" file msg
      | Sys_error msg -> fail "%s" msg
    in
    let events =
      match Option.bind (Ddp_obs.Json.member "traceEvents" j) Ddp_obs.Json.to_list with
      | Some l -> l
      | None -> fail "%s: no traceEvents array" file
    in
    let span_tids = Hashtbl.create 8 in
    let n_spans = ref 0 in
    List.iter
      (fun e ->
        match Option.bind (Ddp_obs.Json.member "ph" e) Ddp_obs.Json.to_str with
        | Some "X" ->
          incr n_spans;
          (match Option.bind (Ddp_obs.Json.member "tid" e) Ddp_obs.Json.to_int with
          | Some tid -> Hashtbl.replace span_tids tid ()
          | None -> fail "%s: span without tid" file)
        | _ -> ())
      events;
    if !n_spans = 0 then fail "%s: no complete spans" file;
    (match workers with
    | Some w ->
      for tid = 1 to w do
        if not (Hashtbl.mem span_tids tid) then
          fail "%s: worker track %d has no spans" file tid
      done
    | None -> ());
    Printf.printf "%s: OK (%d events, %d spans, %d tracks with spans)\n" file
      (List.length events) !n_spans (Hashtbl.length span_tids)
  in
  Cmd.v
    (Cmd.info "check-trace" ~doc:"Validate a --trace-out Chrome trace JSON file.")
    Term.(const run $ file_arg $ check_workers_arg)

(* -- check-progress --------------------------------------------------------- *)

(* Validate a --progress-out NDJSON file: every line parses, carries the
   ddp-progress/1 schema and the required fields, and the time/event
   series are monotone.  Used by the CI obs-smoke job. *)
let check_progress_cmd =
  let file_arg =
    Arg.(
      required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Progress NDJSON file.")
  in
  let min_samples_arg =
    Arg.(
      value
      & opt int 1
      & info [ "min-samples" ] ~docv:"N" ~doc:"Require at least N samples (default 1).")
  in
  let run file min_samples =
    let fail fmt =
      Printf.ksprintf (fun s -> Printf.eprintf "check-progress: %s\n" s; exit 1) fmt
    in
    let ic = try open_in file with Sys_error msg -> fail "%s" msg in
    let n = ref 0 and lineno = ref 0 in
    let last_t = ref neg_infinity and last_events = ref min_int in
    (try
       while true do
         let line = input_line ic in
         incr lineno;
         if String.trim line <> "" then begin
           let j =
             try Ddp_obs.Json.parse line
             with Ddp_obs.Json.Parse_error msg ->
               fail "%s:%d: JSON parse error: %s" file !lineno msg
           in
           (match Option.bind (Ddp_obs.Json.member "schema" j) Ddp_obs.Json.to_str with
           | Some s when s = Ddp_obs.Progress.schema -> ()
           | Some s ->
             fail "%s:%d: schema %S, expected %S" file !lineno s Ddp_obs.Progress.schema
           | None -> fail "%s:%d: no schema field" file !lineno);
           let num name =
             match Option.bind (Ddp_obs.Json.member name j) Ddp_obs.Json.to_float with
             | Some v -> v
             | None -> fail "%s:%d: missing numeric field %S" file !lineno name
           in
           let t = num "t_s" in
           let events = int_of_float (num "events") in
           ignore (num "events_per_s");
           ignore (num "queue_chunks");
           ignore (num "dropped_events");
           ignore (num "worker_crashes");
           if t < !last_t then fail "%s:%d: t_s went backwards (%.3f after %.3f)" file !lineno t !last_t;
           if events < !last_events then
             fail "%s:%d: events went backwards (%d after %d)" file !lineno events !last_events;
           last_t := t;
           last_events := events;
           incr n
         end
       done
     with End_of_file -> close_in ic);
    if !n < min_samples then fail "%s: only %d sample(s), need at least %d" file !n min_samples;
    Printf.printf "%s: OK (%d samples, monotone, final events=%d)\n" file !n !last_events
  in
  Cmd.v
    (Cmd.info "check-progress" ~doc:"Validate a --progress-out NDJSON progress file.")
    Term.(const run $ file_arg $ min_samples_arg)

(* -- static ---------------------------------------------------------------- *)

module Static_dep = Ddp_static.Static_dep

(* Analyze every registered workload and cross-check loop verdicts
   against the ground-truth annotations.  A Serial verdict on a loop
   annotated parallel would mean the analyzer proved a carried RAW that
   cannot exist — a hard (exit-1) contradiction.  Parallel on a loop
   annotated serial is reported but tolerated: annotations are
   conservative for some workloads and the proof may simply be sharper. *)
(* Race-verdict lint of one workload against the @race/@norace ground
   truth of the task family.  A [Race_free] verdict on a @race workload
   would mean the lint proved silence where a race provably exists; a
   [Racy] (must-race) verdict on a @norace workload proves noise that
   cannot happen.  Both are hard contradictions; [Race_unknown] is the
   honest middle and never fails the gate. *)
let race_contradiction ~name ~(verdict : Static_dep.race_verdict) =
  match List.assoc_opt name Ddp_workloads.Tasks.ground_truth with
  | None -> None
  | Some racy -> (
    match verdict with
    | Static_dep.Race_free when racy -> Some "race-free-verdict-on-@race"
    | Static_dep.Racy when not racy -> Some "racy-verdict-on-@norace"
    | _ -> None)

let static_lint ~json_out () =
  let hard = ref 0 and soft = ref 0 and loops = ref 0 in
  let per_workload =
    List.map
      (fun (w : Ddp_workloads.Wl.t) ->
        let prog = w.Ddp_workloads.Wl.seq ~scale:1 in
        let report = Ddp_static.Analyze.analyze prog in
        let entries =
          List.map
            (fun (v : Static_dep.loop_verdict) ->
              incr loops;
              let contradiction =
                match v.Static_dep.v_verdict with
                | Static_dep.Serial when v.Static_dep.v_annotated ->
                  incr hard;
                  Some "serial-verdict-on-annotated-parallel"
                | Static_dep.Parallel when not v.Static_dep.v_annotated ->
                  incr soft;
                  Some "proved-parallel-on-annotated-serial"
                | _ -> None
              in
              (match contradiction with
              | Some c ->
                Printf.printf "  %-16s line %d: %s (static %s)\n" w.name
                  v.Static_dep.v_header c
                  (Static_dep.verdict_to_string v.Static_dep.v_verdict)
              | None -> ());
              (v, contradiction))
            report.Static_dep.loops
        in
        let rv = Static_dep.program_race_verdict report in
        let rc = race_contradiction ~name:w.Ddp_workloads.Wl.name ~verdict:rv in
        (match rc with Some _ -> incr hard | None -> ());
        (match List.assoc_opt w.Ddp_workloads.Wl.name Ddp_workloads.Tasks.ground_truth with
        | Some racy ->
          Printf.printf "  %-16s race: static=%s (annotated %s)%s\n" w.Ddp_workloads.Wl.name
            (Static_dep.race_verdict_to_string rv)
            (if racy then "@race" else "@norace")
            (match rc with Some c -> " — " ^ c | None -> "")
        | None -> ());
        (w.Ddp_workloads.Wl.name, report, entries, rv, rc))
      Ddp_workloads.Registry.all
  in
  Printf.printf
    "lint: %d workloads, %d loops — %d hard contradiction(s), %d sharper-than-annotation\n"
    (List.length per_workload) !loops !hard !soft;
  (match json_out with
  | Some path ->
    let j =
      Ddp_obs.Json.Obj
        [
          ("hard_contradictions", Ddp_obs.Json.Int !hard);
          ("sharper_than_annotation", Ddp_obs.Json.Int !soft);
          ("loops", Ddp_obs.Json.Int !loops);
          ( "workloads",
            Ddp_obs.Json.List
              (List.map
                 (fun (name, report, entries, rv, rc) ->
                   Ddp_obs.Json.Obj
                     [
                       ("name", Ddp_obs.Json.Str name);
                       ( "race_verdict",
                         Ddp_obs.Json.Str (Static_dep.race_verdict_to_string rv) );
                       ( "race_contradiction",
                         match rc with
                         | Some c -> Ddp_obs.Json.Str c
                         | None -> Ddp_obs.Json.Null );
                       ( "prunable",
                         Ddp_obs.Json.List
                           (List.map
                              (fun v -> Ddp_obs.Json.Str v)
                              report.Static_dep.prunable) );
                       ( "loops",
                         Ddp_obs.Json.List
                           (List.map
                              (fun ((v : Static_dep.loop_verdict), contradiction) ->
                                Ddp_obs.Json.Obj
                                  [
                                    ("line", Ddp_obs.Json.Int v.Static_dep.v_header);
                                    ( "verdict",
                                      Ddp_obs.Json.Str
                                        (Static_dep.verdict_to_string
                                           v.Static_dep.v_verdict) );
                                    ( "annotated_parallel",
                                      Ddp_obs.Json.Bool v.Static_dep.v_annotated );
                                    ( "contradiction",
                                      match contradiction with
                                      | Some c -> Ddp_obs.Json.Str c
                                      | None -> Ddp_obs.Json.Null );
                                  ])
                              entries) );
                     ])
                 per_workload) );
        ]
    in
    Ddp_obs.Json.to_file path j;
    Printf.printf "lint report written to %s\n" path
  | None -> ());
  if !hard > 0 then exit 1

let static_cmd =
  let opt_name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD" ~doc:"Workload name (omit with --lint-workloads).")
  in
  let json_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE" ~doc:"Write the full static report (JSON) to FILE.")
  in
  let compare_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "compare" ] ~docv:"MODE"
          ~doc:
            "Also profile dynamically under engine MODE and print the per-kind static-vs-dynamic \
             confusion matrix plus the loop-verdict agreement table.")
  in
  let lint_arg =
    Arg.(
      value & flag
      & info [ "lint-workloads" ]
          ~doc:
            "Analyze every registered workload and report loop verdicts that contradict the \
             ground-truth annotations (exit 1 on a Serial verdict for an annotated-parallel \
             loop, a race-free verdict on a @race task workload, or a racy verdict on a \
             @norace one).")
  in
  let races_arg =
    Arg.(
      value & flag
      & info [ "races" ]
          ~doc:
            "Race lint: print the per-spawn and whole-program race verdicts, diff the static \
             race set against the SP-DAG engine's race-flagged dependences (exit 1 if the \
             engine saw a race the lint did not flag), and check the @race/@norace ground \
             truth where the workload has one.")
  in
  let run name scale seed json_out compare_mode lint races =
    if lint then static_lint ~json_out ()
    else
      match name with
      | None ->
        Printf.eprintf "ddprof static: WORKLOAD required (or pass --lint-workloads)\n";
        exit 2
      | Some name ->
        let w = Ddp_workloads.Registry.find name in
        let prog = w.Ddp_workloads.Wl.seq ~scale in
        let report = Ddp_static.Analyze.analyze prog in
        print_string (Static_dep.render report);
        if races then begin
          let verdict = Static_dep.program_race_verdict report in
          Printf.printf "\nrace lint: program verdict %s (%d race edge(s), %d proven)\n"
            (Static_dep.race_verdict_to_string verdict)
            report.Static_dep.stats.Static_dep.s_race_may
            report.Static_dep.stats.Static_dep.s_race_must;
          (* Confusion against the dag engine: its race flags are
             schedule-independent, so one run is a full reference. *)
          let outcome = Ddp_core.Profiler.profile ~mode:"dag" ~sched_seed:seed prog in
          let var_name = Ddp_minir.Symtab.var_name outcome.Ddp_core.Profiler.symtab in
          let dyn = Ddp_core.Accuracy.project_races ~var_name outcome.Ddp_core.Profiler.deps in
          let sr = Static_dep.race_set report in
          let module ES = Ddp_core.Accuracy.Edge_set in
          let both = ES.inter sr dyn in
          let missed = ES.diff dyn sr in
          Printf.printf
            "race confusion vs --mode dag: static %d, dynamic %d, both %d, static-only %d, \
             dynamic-only %d, sound=%b\n"
            (ES.cardinal sr) (ES.cardinal dyn) (ES.cardinal both)
            (ES.cardinal (ES.diff sr dyn))
            (ES.cardinal missed) (ES.is_empty missed);
          ES.iter
            (fun e ->
              Printf.printf "  MISSED by lint: %s\n" (Ddp_core.Accuracy.Edge.to_string e))
            missed;
          (match race_contradiction ~name ~verdict with
          | Some c ->
            Printf.printf "race lint: ground-truth contradiction — %s\n" c;
            exit 1
          | None ->
            (match List.assoc_opt name Ddp_workloads.Tasks.ground_truth with
            | Some racy ->
              Printf.printf "race lint: ground truth %s — consistent\n"
                (if racy then "@race" else "@norace")
            | None -> ()));
          if not (ES.is_empty missed) then exit 1
        end;
        (match compare_mode with
        | Some mode ->
          check_mode mode;
          let outcome = Ddp_core.Profiler.profile ~mode ~sched_seed:seed prog in
          let dyn =
            Ddp_core.Accuracy.project
              ~var_name:(Ddp_minir.Symtab.var_name outcome.symtab)
              outcome.deps
          in
          print_newline ();
          Format.printf "%a@."
            Ddp_core.Accuracy.pp_confusion
            (Ddp_core.Accuracy.confusion ~may:(Static_dep.may_set report)
               ~must:(Static_dep.must_set report) ~dynamic:dyn);
          Format.printf "@.@[<v>%a@]@." Ddp_analyses.Static_dynamic.pp_summary
            (Ddp_analyses.Static_dynamic.compare ~sched_seed:seed prog)
        | None -> ());
        (match json_out with
        | Some path ->
          Ddp_obs.Json.to_file path (Static_dep.to_json report);
          Printf.printf "static report written to %s\n" path
        | None -> ())
  in
  Cmd.v
    (Cmd.info "static"
       ~doc:
         "Static whole-program dependence analysis: must/may edges, affine loop verdicts, the \
          task race lint (--races), and the hybrid engines' pruning candidates — no execution \
          involved.")
    Term.(
      const run $ opt_name_arg $ scale_arg $ seed_arg $ json_out_arg $ compare_arg $ lint_arg
      $ races_arg)

(* -- daemon client --------------------------------------------------------- *)

let daemon_socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "daemon" ] ~docv:"SOCK" ~doc:"Unix-domain socket path of a running ddpd.")

let submit_cmd =
  let retries_arg =
    Arg.(
      value & opt int 6
      & info [ "retries" ] ~docv:"N"
          ~doc:"Connect/BUSY retries before giving up (capped exponential backoff with jitter).")
  in
  let chunk_arg =
    Arg.(
      value
      & opt int (64 * 1024)
      & info [ "chunk-bytes" ] ~docv:"B"
          ~doc:
            "DATA frame payload size, clamped to the 8 MiB frame cap.  Small values stress the \
             daemon's incremental decoder with arbitrary byte splits.")
  in
  let label_arg =
    Arg.(
      value & opt (some string) None
      & info [ "label" ] ~docv:"NAME" ~doc:"Session label shown in ddpd status (default: the workload name).")
  in
  let trace_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE" ~doc:"Submit a recorded trace file instead of running a workload.")
  in
  let diff_batch_arg =
    Arg.(
      value & flag
      & info [ "diff-batch" ]
          ~doc:
            "Also profile the same stream as a one-shot batch run in this process and fail (exit \
             1) unless the daemon's dependence keys are identical.")
  in
  let crash_arg =
    Arg.(
      value & opt int 0
      & info [ "inject-crash" ] ~docv:"N"
          ~doc:"Ask the daemon to arm an N-shot crash budget against this session (chaos testing).")
  in
  let run opt_name trace scale variant target_threads seed mode socket policy deadline retries
      chunk label inject_crash diff_batch =
    let events, symtab, default_label =
      match (opt_name, trace) with
      | Some name, None ->
        let events, symtab = collect_events ~variant ~target_threads ~scale ~seed name in
        (events, symtab, name)
      | None, Some path ->
        let events, symtab = Ddp_minir.Trace_file.load ~path in
        (events, symtab, Filename.basename path)
      | Some _, Some _ ->
        Printf.eprintf "ddprof submit: give either a WORKLOAD or --trace FILE, not both\n";
        exit 2
      | None, None ->
        Printf.eprintf "ddprof submit: need a WORKLOAD or --trace FILE\n";
        exit 2
    in
    let name = Option.value label ~default:default_label in
    match
      Ddp_daemon.Client.submit ~retries ~seed ~policy ?deadline
        ?inject_crash:(if inject_crash > 0 then Some inject_crash else None)
        ~chunk_bytes:chunk ~socket ~name ~mode ~events ~symtab ()
    with
    | Error e ->
      Printf.eprintf "ddprof submit: %s\n" (Ddp_daemon.Client.error_to_string e);
      exit 1
    | Ok r ->
      Printf.printf "session %d (%s, mode %s): %s\n" r.Ddp_daemon.Client.session name mode
        (if r.Ddp_daemon.Client.complete then "complete" else "PARTIAL");
      Printf.printf "dependences: %d distinct, %d occurrences folded\n"
        r.Ddp_daemon.Client.distinct r.Ddp_daemon.Client.occurrences;
      Printf.printf "events: %d received, %d processed\n" r.Ddp_daemon.Client.events_received
        r.Ddp_daemon.Client.events_processed;
      if not r.Ddp_daemon.Client.complete then begin
        List.iter (fun reason -> Printf.printf "  reason: %s\n" reason) r.Ddp_daemon.Client.reasons;
        let l = r.Ddp_daemon.Client.loss in
        Printf.printf "  loss: %d chunks dropped (%d events), %d unprocessed\n"
          l.Ddp_core.Health.dropped_chunks l.Ddp_core.Health.dropped_events
          l.Ddp_core.Health.unprocessed_chunks
      end;
      let diff_failed =
        diff_batch
        &&
        let batch =
          Ddp_core.Profiler.run ~mode (Ddp_core.Source.of_events ~symtab events)
        in
        let batch_keys = Ddp_core.Dep_store.key_set batch.Ddp_core.Profiler.deps in
        let daemon_keys = Ddp_daemon.Client.dep_key_set r in
        if Ddp_core.Dep_store.Key_set.equal batch_keys daemon_keys then begin
          Printf.printf "diff-batch: %d dependence keys identical to the batch run\n"
            (Ddp_core.Dep_store.Key_set.cardinal batch_keys);
          false
        end
        else begin
          Printf.eprintf "diff-batch: daemon %d keys vs batch %d keys — MISMATCH\n"
            (Ddp_core.Dep_store.Key_set.cardinal daemon_keys)
            (Ddp_core.Dep_store.Key_set.cardinal batch_keys);
          true
        end
      in
      if diff_failed then exit 1;
      if not r.Ddp_daemon.Client.complete then exit 3
  in
  let opt_name_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc:"Workload to profile remotely.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Profile through a running ddpd instead of in-process: stream the workload's trace over \
          the daemon socket and print the returned report.  Exit 3 when the daemon salvaged a \
          partial result, 1 on daemon errors or a --diff-batch mismatch.")
    Term.(
      const run $ opt_name_arg $ trace_arg $ scale_arg $ variant_arg $ target_threads_arg
      $ seed_arg $ mode_arg $ daemon_socket_arg $ backpressure_arg $ deadline_arg $ retries_arg
      $ chunk_arg $ label_arg $ crash_arg $ diff_batch_arg)

let daemon_status_cmd =
  let run socket =
    match Ddp_daemon.Client.status ~socket () with
    | Error e ->
      Printf.eprintf "ddprof daemon-status: %s\n" (Ddp_daemon.Client.error_to_string e);
      exit 1
    | Ok json -> print_endline (Ddp_obs.Json.to_string json)
  in
  Cmd.v
    (Cmd.info "daemon-status"
       ~doc:"Print a running ddpd's ddpd-status/1 document (admission state, per-tenant counters).")
    Term.(const run $ daemon_socket_arg)

(* -- races ---------------------------------------------------------------- *)

let races_cmd =
  let run name scale target_threads seed =
    let prog = get_program ~variant:`Par ~target_threads ~scale name in
    let outcome = Ddp_core.Profiler.profile ~mode:"serial" ~mt:true ~sched_seed:seed prog in
    print_string
      (Ddp_analyses.Race_report.render
         ~var_name:(Ddp_minir.Symtab.var_name outcome.symtab)
         outcome.deps)
  in
  Cmd.v
    (Cmd.info "races" ~doc:"Report dependences observed with reversed order (potential races).")
    Term.(const run $ name_arg $ scale_arg $ target_threads_arg $ seed_arg)

let main =
  let doc = "generic data-dependence profiler (IPDPS'15 reproduction)" in
  Cmd.group (Cmd.info "ddprof" ~doc)
    [
      run_cmd;
      stats_cmd;
      check_trace_cmd;
      check_progress_cmd;
      list_cmd;
      list_modes_cmd;
      loops_cmd;
      comm_cmd;
      races_cmd;
      graph_cmd;
      record_cmd;
      replay_cmd;
      foreign_export_cmd;
      foreign_diff_cmd;
      submit_cmd;
      daemon_status_cmd;
      distance_cmd;
      calltree_cmd;
      static_cmd;
    ]

let () = exit (Cmd.eval main)
