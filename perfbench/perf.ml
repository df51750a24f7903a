(* perfbench: the profiler's end-to-end benchmark and per-layer ledger.

     python3 perfbench/run.py --workload fig5-serial --seed 1 --seconds 15 --trace 0

   run.py builds this executable and forwards its arguments.  One run is
   one workload in one process:

   1. set-up, repeated [setup_reps] times (setup_s is the median, divided
      by the host factor of the samples around it);
   2. an untimed warm-up pass, while a child process (this executable
      with --oracle) computes the reference dependence sets, so the
      oracle's memory never reaches this process's peak RSS;
   3. timed passes until --seconds have elapsed (at least one), each
      divided by the host factor a helper process (this executable with
      --host-kernel) measures around its runs;
   4. peak RSS, then the output checks and the result.

   With --trace 1 the timed passes alternate untraced and traced; a
   traced pass adds the decomposition runs of the workload's layers, and
   one probe on a small program measures the layers the workload does
   not exercise.  README.md documents every workload and metric. *)

module R = Runs
module Config = Ddp_core.Config
module Engine = Ddp_core.Engine
module Dep_store = Ddp_core.Dep_store
module Key_set = Dep_store.Key_set
module Health = Ddp_core.Health
module Json = Ddp_obs.Json
module Server = Ddp_daemon.Server
module Client = Ddp_daemon.Client

let _builtin = Ddp_core.Engines.builtin
let nproc = Domain.recommended_domain_count ()
let setup_reps = 9
let out_dir = "_perfbench"

let percentile l p = Ddp_util.Stats.percentile (Array.of_list l) p
let median l = percentile l 50.0

(* -- workloads ------------------------------------------------------------- *)

type kind = Serial | Parallel | Dag | Daemon

type workload = {
  name : string;
  kind : kind;
  progs : (string * int) list;  (** (registry name, scale) *)
  probe : string * int;  (** small program for the layers [kind] bypasses *)
}

let workloads ~smoke =
  let fig5 =
    if smoke then [ ("bodytrack", 1); ("md5", 1); ("is", 1) ]
    else
      List.map
        (fun (w : Ddp_workloads.Wl.t) -> (w.name, 1))
        (Ddp_workloads.Registry.nas @ Ddp_workloads.Registry.starbench)
  in
  (* Scales keep each task program under ~0.5 s: the interpreter's task
     runtime grows faster than linearly (msort-task: 1.2 s at scale 16,
     29.5 s at scale 64, uninstrumented). *)
  let fib, msort, scan = if smoke then (3, 4, 32) else (5, 8, 256) in
  let tasks =
    [
      ("fib-task", fib);
      ("fib-task-racy", fib);
      ("msort-task", msort);
      ("msort-task-racy", msort);
      ("scan-task", scan);
      ("scan-task-racy", scan);
    ]
  in
  let traces =
    if smoke then [ ("water-spatial", 1); ("scan-task", 16); ("fib-task", 3) ]
    else [ ("water-spatial", 1); ("scan-task", 64); ("fib-task", 5) ]
  in
  [
    { name = "fig5-serial"; kind = Serial; progs = fig5; probe = ("bodytrack", 1) };
    { name = "fig5-parallel"; kind = Parallel; progs = fig5; probe = ("bodytrack", 1) };
    { name = "tasks-dag"; kind = Dag; progs = tasks; probe = ("scan-task", scan) };
    { name = "ddpd-submit"; kind = Daemon; progs = traces; probe = ("bodytrack", 1) };
  ]

let build (name, scale) =
  {
    R.name = (if scale = 1 then name else Printf.sprintf "%s@%d" name scale);
    ast = (Ddp_workloads.Registry.find name).Ddp_workloads.Wl.seq ~scale;
    race = List.assoc_opt name Ddp_workloads.Tasks.ground_truth;
  }

let engine_of = function Serial | Daemon -> "serial" | Parallel -> "parallel" | Dag -> "dag"

(* Load is sized for the host: the parallel engine and the daemon pool
   get nproc - 1 worker domains, leaving one core to the producer. *)
let config_of kind ~seed =
  match kind with
  | Parallel -> { Config.default with Config.workers = max 1 (nproc - 1); seed }
  | Serial | Dag | Daemon -> { Config.default with Config.seed }

let batch tr ~seed =
  R.profiled (Engine.get "serial") (config_of Daemon ~seed) ~symtab:tr.R.symtab (R.replay tr)

(* -- the reference dependence sets (child process) ------------------------ *)

(* Live workloads: the exact [perfect] store on the same stream (race
   flags dropped; the dag engine's flags are checked against ground
   truth instead).  ddpd: a batch serial run of the same trace. *)
let oracle w ~seed =
  List.map
    (fun spec ->
      let p = build spec in
      match w.kind with
      | Daemon ->
        let b = batch (R.record ~seed p) ~seed in
        (p.R.name, Dep_store.key_set b.R.outcome.Engine.deps)
      | Serial | Parallel | Dag ->
        let ph = R.profiled_live (Engine.get "perfect") (config_of w.kind ~seed) ~seed p in
        (p.R.name, Dep_store.key_set_no_race ph.R.outcome.Engine.deps))
    w.progs

let spawn_oracle w ~seed ~smoke =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--oracle"; "--workload"; w.name; "--seed"; string_of_int seed ]
    @ if smoke then [ "--smoke" ] else []
  in
  Unix.open_process_args_in exe (Array.of_list args)

let await_oracle ic : (string * Key_set.t) list =
  let refs = Marshal.from_channel ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> refs
  | _ -> failwith "oracle process failed"

(* -- the host-speed helper ----------------------------------------------------- *)

(* The helper runs [Runs.spin] on request, one line per sample, until its
   stdin closes; the benchmark blocks while it runs. *)
let serve_host_kernel () =
  ignore (R.spin () : float);
  try
    while true do
      ignore (input_line stdin : string);
      Printf.printf "%h\n%!" (R.spin ())
    done
  with End_of_file -> ()

type host = {
  helper : in_channel * out_channel;
  mutable spins : float list;  (** every sample, latest first *)
}

let start_host () =
  let exe = Sys.executable_name in
  { helper = Unix.open_process_args exe [| exe; "--host-kernel" |]; spins = [] }

let sample_host h =
  let ic, oc = h.helper in
  output_string oc "\n";
  flush oc;
  let spin = Scanf.sscanf (input_line ic) "%h" Fun.id in
  h.spins <- spin :: h.spins;
  spin

(* The host factor of the samples taken since [mark] ([List.length
   h.spins] at the time): their median over the nominal speed, so 2.0
   means the host did half the work per second. *)
let factor_since h mark =
  median (List.filteri (fun i _ -> i < List.length h.spins - mark) h.spins) /. R.spin_ref_ns

let stop_host h =
  match Unix.close_process h.helper with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "host-speed helper failed"

(* -- output checks ----------------------------------------------------------- *)

type check = {
  mutable refs : (string * Key_set.t) list;  (** oracle, per program *)
  first : (string, Key_set.t) Hashtbl.t;  (** warm-up output, per program *)
  mutable attempted : int;
  mutable failed : int;  (** Partial, raised, or a client error *)
  mutable mismatched : int;  (** key set differs from the reference *)
  mutable fp : int;
  mutable fn : int;
  mutable reported : int;
  mutable truth : int;
  mutable problems : string list;
}

let new_check () =
  {
    refs = [];
    first = Hashtbl.create 32;
    attempted = 0;
    failed = 0;
    mismatched = 0;
    fp = 0;
    fn = 0;
    reported = 0;
    truth = 0;
    problems = [];
  }

let problem c fmt = Printf.ksprintf (fun s -> c.problems <- s :: c.problems) fmt
let no_race s = Key_set.map (fun k -> { k with Ddp_core.Dep.race = false }) s

(* One profiled run's output, [None] when it failed.  The warm-up run of
   each program becomes the reference every timed run must reproduce
   exactly; the warm-up itself is judged against the oracle later. *)
let observe c ~warm name keys =
  if not warm then c.attempted <- c.attempted + 1;
  match keys with
  | None -> if warm then problem c "%s: warm-up run failed" name else c.failed <- c.failed + 1
  | Some keys when warm -> Hashtbl.replace c.first name keys
  | Some keys -> (
    match Hashtbl.find_opt c.first name with
    | Some first when Key_set.equal first keys -> ()
    | _ ->
      c.mismatched <- c.mismatched + 1;
      problem c "%s: dependence set differs from the warm-up run" name)

let outcome_keys (ph : R.phases) =
  if Health.is_partial ph.R.outcome.Engine.health then None
  else Some (Dep_store.key_set ph.R.outcome.Engine.deps)

(* Signature engines may differ from the oracle by their approximation;
   more than 1% false positives or negatives is a wrong result.  The
   exact engines must match key for key. *)
let judge_warmup c w progs =
  List.iter
    (fun (p : R.prog) ->
      match (Hashtbl.find_opt c.first p.R.name, List.assoc_opt p.R.name c.refs) with
      | None, _ -> ()
      | _, None -> problem c "%s: no reference" p.R.name
      | Some out, Some truth -> (
        match w.kind with
        | Serial | Parallel ->
          let a = Ddp_core.Accuracy.of_key_sets ~reported:(no_race out) ~ground_truth:truth in
          c.fp <- c.fp + a.false_positives;
          c.fn <- c.fn + a.false_negatives;
          c.reported <- c.reported + a.reported;
          c.truth <- c.truth + a.ground_truth;
          if a.fpr > 0.01 || a.fnr > 0.01 then
            problem c "%s: signature error fpr %.4f fnr %.4f exceeds 1%%" p.R.name a.fpr a.fnr
        | Dag -> (
          if not (Key_set.equal (no_race out) truth) then
            problem c "%s: dag dependences differ from perfect" p.R.name;
          let races = Key_set.exists (fun k -> k.Ddp_core.Dep.race) out in
          match p.R.race with
          | Some expected when expected <> races ->
            problem c "%s: race flags %b, ground truth %b" p.R.name races expected
          | _ -> ())
        | Daemon ->
          if not (Key_set.equal out truth) then
            problem c "%s: ddpd dependences differ from the batch run" p.R.name))
    progs

(* -- the ledger ----------------------------------------------------------------- *)

(* Each layer metric is a ratio of sums, accumulated over every run that
   measured it: (time, events) for ns/event, (time, runs) for ms. *)
type ledger = (string, float ref * float ref) Hashtbl.t

let add (l : ledger) name num den =
  match Hashtbl.find_opt l name with
  | Some (n, d) ->
    n := !n +. num;
    d := !d +. den
  | None -> Hashtbl.add l name (ref num, ref den)

let ratio (l : ledger) name = Option.map (fun (n, d) -> !n /. !d) (Hashtbl.find_opt l name)
let ns l name t events = add l name (t *. 1e9) (Int.to_float events)
let ms l name t = add l name (t *. 1e3) 1.0

(* [nat]/[hnd]: the same program uninstrumented and into one subscriber;
   [ph]: the workload engine's profiled run.  The engine's own layer is
   the residual of its feed over [hnd]. *)
let ledger_common l ~nat ~hnd (ph : R.phases) =
  ns l "minir.interp_ns_per_event" nat ph.R.events;
  ns l "minir.handler_ns_per_event" (hnd -. nat) ph.R.events;
  ms l "core.engine_create_ms" ph.R.create;
  ms l "core.finish_ms" ph.R.finish;
  ms l "core.report_ms" ph.R.report

let ledger_serial l ~hnd (ph : R.phases) =
  ns l "core.serial.algo_ns_per_event" (ph.R.feed -. hnd) ph.R.events

(* Virtual mode splits the pipeline: producer = feed minus the timed
   worker steps minus event delivery; merge = finish minus the drain's
   worker steps.  Overlap compares that one-domain total with the
   real-domain run of the same program.  Returns the layer sum. *)
let ledger_parallel l ~hnd (vp : R.vphases) (real : R.phases) =
  let v = vp.R.v in
  let producer = v.R.feed -. vp.R.worker_in_feed -. hnd
  and worker = vp.R.worker_in_feed +. vp.R.worker_in_finish
  and merge = v.R.finish -. vp.R.worker_in_finish in
  ns l "core.parallel.producer_ns_per_event" producer v.R.events;
  ns l "core.parallel.worker_ns_per_event" worker v.R.events;
  ms l "core.parallel.merge_ms" merge;
  add l "core.parallel.overlap" (R.wall v) (R.wall real);
  v.R.create +. hnd +. producer +. worker +. merge +. v.R.report

let ledger_dag l ~hnd ~(perfect : R.phases) (dag : R.phases) =
  ns l "core.perfect.algo_ns_per_event" (perfect.R.feed -. hnd) perfect.R.events;
  ns l "core.dag.ns_per_event" (dag.R.feed -. perfect.R.feed) dag.R.events

type decomposed = {
  enc : float;
  dec : float;
  batch : R.phases;  (** the same trace through a batch serial session *)
  null : float;  (** the same trace replayed into nothing *)
}

(* One recorded trace through the layers a ddpd submit crosses outside
   the wire: client encode, tenant decode, the batch engine. *)
let ledger_trace l tr ~seed =
  let enc, bytes = R.encode tr in
  let dec = R.decode bytes in
  ns l "minir.trace_encode_ns_per_event" enc tr.R.accesses;
  ns l "minir.trace_decode_ns_per_event" dec tr.R.accesses;
  { enc; dec; batch = batch tr ~seed; null = R.replay_null tr }

(* A submit's server time beyond decoding and the batch engine is the
   tenant's own machinery: batching, queueing, the pool hand-off. *)
let ledger_submit l (d : decomposed) tr ~wall (r : Client.report) =
  add l "daemon.server_share" r.Client.elapsed wall;
  let engine = d.batch.R.create +. d.batch.R.feed +. d.batch.R.finish in
  ns l "daemon.tenant_overhead_ns_per_event" (r.Client.elapsed -. d.dec -. engine) tr.R.accesses

(* -- ddpd ------------------------------------------------------------------------ *)

let server_config ~socket =
  {
    (Server.default_config ~socket_path:socket) with
    Server.workers = max 1 (nproc - 1);
    log = ignore;
  }

let socket_path tag =
  Filename.concat out_dir (Printf.sprintf "ddpd-%d-%s.sock" (Unix.getpid ()) tag)

let with_server ~socket f =
  let server = Server.start (server_config ~socket) in
  Fun.protect ~finally:(fun () -> Server.stop server) f

type submitted = { tr : R.trace; s_wall : float; result : (Client.report, Client.error) result }

let report_keys = function
  | Ok r when r.Client.complete -> Some (Client.dep_key_set r)
  | Ok _ | Error _ -> None

(* -- passes ----------------------------------------------------------------------- *)

type sample = {
  prog : string;
  wall : float;
  events : int;
  nat : float;  (** the uninstrumented run just before (live workloads; 0 on ddpd) *)
}

type pass = {
  traced : bool;
  p_events : int;
  p_wall : float;  (** profiled wall (live) or client-side submit wall (ddpd) *)
  factor : float;  (** host factor of the samples taken during the pass; 1.0 for the warm-up *)
  samples : sample list;
}

type state = {
  w : workload;
  seed : int;
  progs : R.prog list;
  traces : R.trace list;
  socket : string;
  check : check;
  ledger : ledger;
  mutable slowdowns : float list;
  mutable occurrences : int;
  mutable distinct : int;
  host : host;  (** samples of the benchmark's own kernels *)
}

let push tbl k v = Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[])

let note_output st ~occurrences ~distinct =
  st.occurrences <- st.occurrences + occurrences;
  st.distinct <- st.distinct + distinct

(* One program: its uninstrumented run, then its profiled run (plus, when
   traced, the decomposition runs of the workload's layers). *)
let live_run st ~warm ~traced (p : R.prog) =
  let seed = st.seed in
  let nat, _ = R.native ~seed p in
  let hnd = if traced then R.handler ~seed p else 0.0 in
  let extra =
    if not traced then `None
    else
      match st.w.kind with
      | Parallel -> `Virtual (R.virtual_parallel (config_of Parallel ~seed) ~seed p)
      | Dag -> `Perfect (R.profiled_live (Engine.get "perfect") (config_of Dag ~seed) ~seed p)
      | Serial | Daemon -> `None
  in
  let engine = Engine.get (engine_of st.w.kind) in
  match R.profiled_live engine (config_of st.w.kind ~seed) ~seed p with
  | exception e ->
    problem st.check "%s: %s" p.R.name (Printexc.to_string e);
    observe st.check ~warm p.R.name None;
    None
  | ph ->
    observe st.check ~warm p.R.name (outcome_keys ph);
    let wall = R.wall ph in
    if not warm then begin
      let deps = ph.R.outcome.Engine.deps in
      note_output st
        ~occurrences:(Dep_store.total_occurrences deps)
        ~distinct:(Dep_store.distinct deps);
      st.slowdowns <- (wall /. nat) :: st.slowdowns;
      if traced then begin
        let l = st.ledger in
        ledger_common l ~nat ~hnd ph;
        match (st.w.kind, extra) with
        | Serial, _ -> ledger_serial l ~hnd ph
        | Parallel, `Virtual vp ->
          let layers = ledger_parallel l ~hnd vp ph in
          add l "ledger.coverage_pct" (100.0 *. layers) (R.wall vp.R.v)
        | Dag, `Perfect perfect -> ledger_dag l ~hnd ~perfect ph
        | _ -> ()
      end;
      ignore (sample_host st.host : float)
    end;
    Some { prog = p.R.name; wall; events = ph.R.events; nat }

let pass_of ~traced samples =
  let p_wall = List.fold_left (fun a s -> a +. s.wall) 0.0 samples in
  let p_events = List.fold_left (fun a s -> a + s.events) 0 samples in
  { traced; p_events; p_wall; factor = 1.0; samples }

let live_pass st ~warm ~traced =
  pass_of ~traced (List.filter_map (live_run st ~warm ~traced) st.progs)

(* Closed loop from one client connection: the traces in a fixed order,
   the next submit only after the previous report arrived, and a host
   sample after each.  More clients only queue behind one another for
   the nproc - 1 pool domains and share the receiver threads' core, so
   a submit's wall measured how the threads' turns happened to
   interleave.  A trace under 10 k accesses goes three times: its submit
   is quick and mostly the session's fixed cost, which varies by +-30%
   from one submit to the next, so it needs the extra samples. *)
let submits_per_pass (tr : R.trace) = if tr.R.accesses < 10_000 then 3 else 1

let daemon_pass st ~warm ~traced =
  let subs =
    List.concat_map
      (fun tr ->
        List.init (submits_per_pass tr) (fun _ ->
            let s_wall, result = R.submit ~socket:st.socket ~seed:st.seed tr in
            if not warm then ignore (sample_host st.host : float);
            { tr; s_wall; result }))
      st.traces
  in
  List.iter
    (fun s ->
      let name = s.tr.R.tname in
      observe st.check ~warm name (report_keys s.result);
      match s.result with
      | Error e -> problem st.check "%s: %s" name (Client.error_to_string e)
      | Ok r ->
        if not warm then
          note_output st ~occurrences:r.Client.occurrences ~distinct:r.Client.distinct)
    subs;
  if traced && not warm then begin
    let l = st.ledger in
    let parts =
      List.map2
        (fun (p : R.prog) tr ->
          let nat, _ = R.native ~seed:st.seed p in
          let hnd = R.handler ~seed:st.seed p in
          let d = ledger_trace l tr ~seed:st.seed in
          ledger_common l ~nat ~hnd d.batch;
          ns l "core.serial.algo_ns_per_event" (d.batch.R.feed -. d.null) tr.R.accesses;
          (tr.R.tname, (nat, d)))
        st.progs st.traces
    in
    List.iter
      (fun s ->
        match s.result with
        | Ok r ->
          let nat, d = List.assoc s.tr.R.tname parts in
          ledger_submit l d s.tr ~wall:s.s_wall r;
          add l "ledger.coverage_pct" (100.0 *. (d.enc +. r.Client.elapsed)) s.s_wall;
          st.slowdowns <- (s.s_wall /. nat) :: st.slowdowns
        | Error _ -> ())
      subs
  end;
  pass_of ~traced
    (List.map
       (fun s -> { prog = s.tr.R.tname; wall = s.s_wall; events = s.tr.R.accesses; nat = 0.0 })
       subs)

(* A timed pass takes a host sample at its start and after every program
   run or submit, and carries their median as its host factor. *)
let pass st ~warm ~traced =
  let run () =
    match st.w.kind with
    | Daemon -> daemon_pass st ~warm ~traced
    | Serial | Parallel | Dag -> live_pass st ~warm ~traced
  in
  if warm then run ()
  else begin
    let mark = List.length st.host.spins in
    ignore (sample_host st.host : float);
    let p = run () in
    { p with factor = factor_since st.host mark }
  end

(* -- the probe: layers the workload bypasses, on one small program ---------- *)

let probe st =
  let l : ledger = Hashtbl.create 16 in
  let seed = st.seed in
  let p = build st.w.probe in
  let hnd = R.handler ~seed p in
  let live mode = R.profiled_live (Engine.get mode) (config_of Serial ~seed) ~seed p in
  if st.w.kind = Parallel || st.w.kind = Dag then ledger_serial l ~hnd (live "serial");
  if st.w.kind <> Parallel then begin
    let vp = R.virtual_parallel (config_of Parallel ~seed) ~seed p in
    let real = R.profiled_live (Engine.get "parallel") (config_of Parallel ~seed) ~seed p in
    ignore (ledger_parallel l ~hnd vp real : float)
  end;
  if st.w.kind <> Dag then ledger_dag l ~hnd ~perfect:(live "perfect") (live "dag");
  if st.w.kind <> Daemon then begin
    let tr = R.record ~seed p in
    let d = ledger_trace l tr ~seed in
    let socket = socket_path "probe" in
    with_server ~socket (fun () ->
        for _ = 1 to 3 do
          match R.submit ~socket ~seed tr with
          | wall, Ok r -> ledger_submit l d tr ~wall r
          | _, Error e -> failwith ("probe submit: " ^ Client.error_to_string e)
        done)
  end;
  l

(* -- metrics -------------------------------------------------------------------- *)

type metric = { mname : string; value : float; unit_ : string }

(* Median over passes of accesses per second; [raw] skips the host
   normalization. *)
let eps ?(raw = false) passes =
  median
    (List.map
       (fun p -> Int.to_float p.p_events /. p.p_wall *. if raw then 1.0 else p.factor)
       passes)

(* Per-event latency: each program's median over the run's passes, then
   percentiles across programs.  The programs differ in ns/event by up to
   10x, so a percentile over all runs would often fall in the gap between
   two programs' clusters and jump with every sample at their edges. *)
let program_ns passes =
  let by_prog = Hashtbl.create 32 in
  List.iter
    (fun p ->
      List.iter
        (fun s -> push by_prog s.prog (1e9 *. s.wall /. Int.to_float s.events /. p.factor))
        p.samples)
    passes;
  Hashtbl.fold (fun _ ns acc -> median ns :: acc) by_prog []

(* Throughput and per-event latency are divided by each pass's host
   factor (the raw throughput goes to the result file); memory is
   reported as measured. *)
let end_to_end passes ~setup_s ~peak_rss_mib =
  let untraced = List.filter (fun p -> not p.traced) passes in
  let ns = program_ns untraced in
  [
    { mname = "events_per_s"; value = eps untraced; unit_ = "events/s" };
    { mname = "ns_per_event_p50"; value = percentile ns 50.0; unit_ = "ns" };
    { mname = "ns_per_event_p75"; value = percentile ns 75.0; unit_ = "ns" };
    { mname = "setup_s"; value = setup_s; unit_ = "s" };
    { mname = "peak_rss_mib"; value = peak_rss_mib; unit_ = "MiB" };
  ]

(* Coverage (fig5-serial, tasks-dag): per program, the traced passes'
   layer sum (their profiled wall, which the residuals add up to) against
   the untraced passes' profiled wall, so it shows how much of the
   end-to-end time the ledger explains.  Both are taken relative to the
   uninstrumented run just before them: the host's slow phases move that
   run as much as the profiled one, which no host-speed kernel does
   (README.md); both sides divide by it, so the interpreter's own speed
   cancels.  The result is the median over programs: single runs of the
   larger task programs swing by up to 2x, which a sum would inherit. *)
let live_coverage passes =
  let layers = Hashtbl.create 32 and walls = Hashtbl.create 32 in
  List.iter
    (fun p ->
      List.iter
        (fun s -> push (if p.traced then layers else walls) s.prog (s.wall /. s.nat))
        p.samples)
    passes;
  100.0
  *. median
       (Hashtbl.fold
          (fun name l acc ->
            match Hashtbl.find_opt walls name with
            | Some w -> (median l /. median w) :: acc
            | None -> acc)
          layers [])

let per_layer st passes ~probe_ledger =
  let l = st.ledger in
  let get name =
    match ratio l name with
    | Some v -> v
    | None -> (
      match ratio probe_ledger name with Some v -> v | None -> failwith ("no value for " ^ name))
  in
  let traced, untraced = List.partition (fun p -> p.traced) passes in
  let m mname unit_ = { mname; value = get mname; unit_ } in
  [
    m "minir.interp_ns_per_event" "ns";
    m "minir.handler_ns_per_event" "ns";
    m "core.engine_create_ms" "ms";
    m "core.finish_ms" "ms";
    m "core.report_ms" "ms";
    m "core.serial.algo_ns_per_event" "ns";
    m "core.parallel.producer_ns_per_event" "ns";
    m "core.parallel.worker_ns_per_event" "ns";
    (let chunk_size = Config.default.Config.chunk_size in
     {
       mname = "core.parallel.queue_hop_ns_per_chunk";
       (* contended Spsc_queue transfer to a consumer domain, s per event *)
       value = 1e9 *. Int.to_float chunk_size *. Harness.queue_cost ~lock_free:true ~chunk_size;
       unit_ = "ns";
     });
    m "core.parallel.merge_ms" "ms";
    m "core.parallel.overlap" "x";
    m "core.perfect.algo_ns_per_event" "ns";
    m "core.dag.ns_per_event" "ns";
    {
      mname = "core.dep_store.merge_factor";
      value = Int.to_float st.occurrences /. Int.to_float st.distinct;
      unit_ = "x";
    };
    { mname = "core.slowdown_p50"; value = percentile st.slowdowns 50.0; unit_ = "x" };
    { mname = "core.slowdown_p90"; value = percentile st.slowdowns 90.0; unit_ = "x" };
    m "minir.trace_encode_ns_per_event" "ns";
    m "minir.trace_decode_ns_per_event" "ns";
    m "daemon.server_share" "x";
    m "daemon.tenant_overhead_ns_per_event" "ns";
    {
      mname = "ledger.coverage_pct";
      value =
        (match st.w.kind with
        | Parallel | Daemon -> get "ledger.coverage_pct"
        | Serial | Dag -> live_coverage passes);
      unit_ = "%";
    };
    {
      mname = "ledger.trace_overhead_pct";
      value = 100.0 *. ((eps untraced /. eps traced) -. 1.0);
      unit_ = "%";
    };
    { mname = "host.calib_spin_ns"; value = median st.host.spins; unit_ = "ns" };
  ]

(* -- set-up -------------------------------------------------------------------- *)

(* What a user pays before the first event is profiled: building the
   programs, and either opening one session of the workload's engine or
   (ddpd) recording the traces and starting the daemon.  The last
   repetition's products are kept. *)
let setup (w : workload) ~seed =
  let progs = List.map build w.progs in
  match w.kind with
  | Daemon ->
    let traces = List.map (R.record ~seed) progs in
    let socket = socket_path "bench" in
    (progs, traces, socket, Some (Server.start (server_config ~socket)))
  | Serial | Parallel | Dag ->
    let session = (Engine.get (engine_of w.kind)).Engine.create (config_of w.kind ~seed) in
    ignore (session.Engine.finish () : Engine.outcome);
    (progs, [], "", None)

(* -- main -------------------------------------------------------------------------- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  oracle_mode : bool;
  host_kernel : bool;
}

let host_json o h =
  let rev =
    try
      let head = String.trim (In_channel.with_open_text ".git/HEAD" In_channel.input_all) in
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] ->
        String.trim (In_channel.with_open_text (Filename.concat ".git" r) In_channel.input_all)
      | _ -> head
    with Sys_error _ -> "unknown"
  in
  Json.Obj
    [
      ("nproc", Json.Int nproc);
      ("calib_spin_ns", Json.Float (median h.spins));
      ("host_factor", Json.Float (median h.spins /. R.spin_ref_ns));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("rev", Json.Str rev);
      ("seed", Json.Int o.seed);
    ]

let run o w =
  let seed = o.seed in
  let host = start_host () in
  Fun.protect ~finally:(fun () -> stop_host host) @@ fun () ->
  let t_setup = ref [] and kept = ref None in
  for _ = 1 to setup_reps do
    Option.iter (fun (_, _, _, s) -> Option.iter Server.stop s) !kept;
    kept := None;
    (* Earlier repetitions' products are garbage: collect them untimed, so
       neither the next repetition nor the peak RSS pays for them. *)
    Gc.compact ();
    ignore (sample_host host : float);
    let dt, r = R.timed (fun () -> setup w ~seed) in
    t_setup := dt :: !t_setup;
    kept := Some r
  done;
  ignore (sample_host host : float);
  let setup_factor = factor_since host 0 in
  let progs, traces, socket, server = Option.get !kept in
  Fun.protect ~finally:(fun () -> Option.iter Server.stop server) @@ fun () ->
  let check = new_check () in
  let st =
    {
      w;
      seed;
      progs;
      traces;
      socket;
      check;
      ledger = Hashtbl.create 32;
      slowdowns = [];
      occurrences = 0;
      distinct = 0;
      host;
    }
  in
  let child = spawn_oracle w ~seed ~smoke:o.smoke in
  Fun.protect
    ~finally:(fun () -> check.refs <- await_oracle child)
    (fun () -> ignore (pass st ~warm:true ~traced:false : pass));
  judge_warmup check w progs;
  (* A trace run compares traced with untraced passes: at least two of
     each, so one slow moment of the host does not decide the ledger. *)
  let deadline = R.clock () +. o.seconds in
  let rec loop i acc =
    let traced = o.trace && i mod 2 = 1 in
    let acc = pass st ~warm:false ~traced :: acc in
    if R.clock () < deadline || (o.trace && i < 3) then loop (i + 1) acc else List.rev acc
  in
  let passes = loop 0 [] in
  let peak_rss_mib = R.peak_rss_mib () in
  let metrics =
    if o.trace then per_layer st passes ~probe_ledger:(probe st)
    else end_to_end passes ~setup_s:(median !t_setup /. setup_factor) ~peak_rss_mib
  in
  (st, passes, metrics)

let finite m = Float.is_finite m.value

let report o w (st, passes, metrics) =
  let c = st.check in
  let correct =
    c.failed = 0 && c.mismatched = 0 && c.problems = [] && List.for_all finite metrics
  in
  List.iter (fun m -> Printf.printf "%s %s %.6g %s\n" w.name m.mname m.value m.unit_) metrics;
  let share n d = if d = 0 then 0.0 else 100.0 *. Int.to_float n /. Int.to_float d in
  let info =
    [
      ("dep_mismatch", Json.Int c.mismatched);
      ("failed_share", Json.Float (share c.failed c.attempted));
      ("fpr_pct", Json.Float (share c.fp c.reported));
      ("fnr_pct", Json.Float (share c.fn c.truth));
      ("passes", Json.Int (List.length passes));
      ("samples", Json.Int (List.fold_left (fun a p -> a + List.length p.samples) 0 passes));
      ("raw_events_per_s", Json.Float (eps ~raw:true (List.filter (fun p -> not p.traced) passes)));
    ]
  in
  List.iter (fun (k, v) -> Printf.printf "%s %s %s\n" w.name k (Json.to_string v)) info;
  List.iter (fun p -> Printf.eprintf "perfbench: %s: %s\n" w.name p) (List.rev c.problems);
  let metrics_json =
    Json.Obj
      (List.map
         (fun m ->
           let value = if finite m then Json.Float m.value else Json.Null in
           (m.mname, Json.Obj [ ("value", value); ("unit", Json.Str m.unit_) ]))
         metrics)
  in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int c.attempted);
        ("failed", Json.Int c.failed);
        ("metrics", metrics_json);
      ]
  in
  let file =
    Filename.concat out_dir (Printf.sprintf "%s%s.json" w.name (if o.trace then "-trace" else ""))
  in
  Json.to_file file
    (Json.Obj
       [
         ("schema", Json.Str "perfbench/1");
         ("workload", Json.Str w.name);
         ("trace", Json.Bool o.trace);
         ("host", host_json o st.host);
         ("checks", Json.Obj info);
         ("result", result);
       ]);
  print_endline (Json.to_string result)

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
  let smoke = ref false and oracle_mode = ref false and host_kernel = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME fig5-serial | fig5-parallel | tasks-dag | ddpd-submit" );
      ("--seed", Arg.Set_int seed, "N input and schedule seed");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds (at least one pass)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the per-layer ledger");
      ("--smoke", Arg.Set smoke, " smallest inputs (correctness, not timing)");
      ("--oracle", Arg.Set oracle_mode, " (internal) print the reference dependence sets");
      ("--host-kernel", Arg.Set host_kernel, " (internal) serve host-speed samples on stdin");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe --workload NAME --seed N --seconds S --trace 0|1";
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    smoke = !smoke;
    oracle_mode = !oracle_mode;
    host_kernel = !host_kernel;
  }

let () =
  let o = parse_args () in
  if o.host_kernel then serve_host_kernel ()
  else
  match List.find_opt (fun w -> w.name = o.workload) (workloads ~smoke:o.smoke) with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ o.workload);
    exit 2
  | Some w when o.oracle_mode ->
    set_binary_mode_out stdout true;
    Marshal.to_channel stdout (oracle w ~seed:o.seed : (string * Key_set.t) list) [];
    flush stdout
  | Some w ->
    (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    report o w (run o w)
