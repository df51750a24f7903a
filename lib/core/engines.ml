(* Built-in engine adapters: the four core modes, registered under the
   names the CLI and DESIGN.md advertise.  The Sec. III-B baseline
   engines (shadow, hashtable, stride) live in Ddp_baselines.
   Baseline_engines, since core cannot depend on baselines. *)

(* Serial profilers (signature and perfect) share the Serial_profiler
   record shape, so one adapter covers both. *)
let of_serial ~name ~description ~exact make_profiler =
  Engine.make ~name ~description ~exact (fun ?account config ->
      let p : Serial_profiler.t = make_profiler ?account config in
      {
        Engine.hooks = p.Serial_profiler.hooks;
        finish =
          (fun () ->
            (match config.Config.obs with
            | Some obs -> p.Serial_profiler.fold_obs obs
            | None -> ());
            {
              Engine.deps = p.Serial_profiler.deps;
              regions = p.Serial_profiler.regions;
              health = Engine.health_of_regions p.Serial_profiler.regions;
              store_bytes = p.Serial_profiler.store_bytes ();
              extra = Engine.No_extra;
            });
      })

let serial =
  of_serial ~name:"serial" ~exact:false
    ~description:"signature store, inline Algorithm 1 (paper Sec. III)"
    Serial_profiler.create_signature

let perfect =
  of_serial ~name:"perfect" ~exact:true
    ~description:"perfect signature: the accuracy oracle (Sec. VI-A)"
    Serial_profiler.create_perfect

type Engine.extra += Parallel_result of Parallel_profiler.result

let parallel =
  Engine.make ~name:"parallel"
    ~description:"producer/worker pipeline over domains (Sec. IV)" ~exact:false
    (fun ?account config ->
      let t = Parallel_profiler.create ?account config in
      Parallel_profiler.start t;
      {
        Engine.hooks = Parallel_profiler.hooks t;
        finish =
          (fun () ->
            let r = Parallel_profiler.finish t in
            {
              Engine.deps = r.Parallel_profiler.deps;
              regions = r.Parallel_profiler.regions;
              health = r.Parallel_profiler.health;
              store_bytes = r.Parallel_profiler.signature_bytes;
              extra = Parallel_result r;
            });
      })

let mt =
  Engine.with_mt ~name:"mt"
    ~description:
      "serial signature engine behind the MT push layer (reorder window + race flags, Sec. V)"
    serial

type Engine.extra += Hybrid of { pruned_events : int; pruned_sites : int }

(* The hybrid static/dynamic filter, shared by "hybrid" and "hybrid-dag":
   an inner session behind a Memory-class gate that drops accesses to
   variables a static pass proved dependence-free ([Config.static_prune],
   ids in the run's pre-interned symtab).  The ids arrive through the
   config so the engines still fit the registry's [Config.t -> session]
   shape; with the default empty list the wrapper is one closure
   indirection.  [wrap] turns the inner outcome plus pruning counters
   into the engine's own [extra]. *)
module Event = Ddp_minir.Event
module Obs = Ddp_obs.Obs

let prune_session config (inner : Engine.session) ~wrap =
  match config.Config.static_prune with
  | [] ->
      {
        inner with
        Engine.finish =
          (fun () ->
            let o = inner.Engine.finish () in
            { o with Engine.extra = wrap ~events:0 ~sites:0 o.Engine.extra });
      }
  | ids ->
      let max_id = List.fold_left max 0 ids in
      let mask = Bytes.make (max_id + 1) '\000' in
      List.iter (fun i -> if i >= 0 then Bytes.set mask i '\001') ids;
      let pruned v = v >= 0 && v <= max_id && Bytes.unsafe_get mask v = '\001' in
      let events = ref 0 in
      let sites = Hashtbl.create 32 in
      let h = inner.Engine.hooks in
      let skip ~loc ~var ~write =
        incr events;
        Hashtbl.replace sites (loc, var, write) ()
      in
      (* Override only the Memory class; every other class keeps the
         inner engine's own closures (physically, via the fuse). *)
      let hooks =
        Ddp_minir.Handler.hooks
          (Ddp_minir.Handler.make
             ~memory:
               {
                 Event.on_read =
                   (fun ~addr ~loc ~var ~thread ~time ~locked ->
                     if pruned var then skip ~loc ~var ~write:false
                     else h.Event.on_read ~addr ~loc ~var ~thread ~time ~locked);
                 on_write =
                   (fun ~addr ~loc ~var ~thread ~time ~locked ->
                     if pruned var then skip ~loc ~var ~write:true
                     else h.Event.on_write ~addr ~loc ~var ~thread ~time ~locked);
               }
             ~region:(Event.region_of h) ~frame:(Event.frame_of h)
             ~alloc:(Event.alloc_of h) ~sync:(Event.sync_of h) ())
      in
      {
        Engine.hooks;
        finish =
          (fun () ->
            let o = inner.Engine.finish () in
            (match config.Config.obs with
            | Some obs when Obs.enabled obs ->
                Obs.add obs ~dom:0 Obs.C.static_pruned_events !events;
                Obs.add obs ~dom:0 Obs.C.static_pruned_deps (Hashtbl.length sites)
            | _ -> ());
            {
              o with
              Engine.extra = wrap ~events:!events ~sites:(Hashtbl.length sites) o.Engine.extra;
            });
      }

let hybrid =
  Engine.make ~name:"hybrid"
    ~description:
      "serial signature engine skipping statically-proved independent accesses (Config.static_prune)"
    ~exact:false
    (fun ?account config ->
      prune_session config
        (serial.Engine.create ?account config)
        ~wrap:(fun ~events ~sites _inner ->
          Hybrid { pruned_events = events; pruned_sites = sites }))

(* The SP-DAG engine: fork-join race detection done right.  The perfect
   store and Algorithm 1, with two substitutions: each access's
   timestamp becomes its task's current SP-DAG strand stamp (shifted
   left one bit to carry the lock flag), and the race verdict [race_of]
   asks the DAG whether the two strands are logically parallel instead
   of comparing observed push times (the Sec. V-B heuristic, which only
   sees the one interleaving that happened to run).  A dependence
   between mutually-unordered strands is a race unless both accesses
   held a lock; everything else is ordered by the series-parallel
   structure under *every* schedule. *)
type Engine.extra += Dag of { strands : int; spawns : int; joins : int }

let dag =
  Engine.make ~name:"dag"
    ~description:
      "perfect store + SP-DAG order maintenance: schedule-independent race verdicts for fork-join programs"
    ~exact:true
    ~consumes:Event.Class.[ Memory; Region; Frame; Alloc; Sync ]
    (fun ?account config ->
      let deps = Dep_store.create ?account () in
      let regions = Region.create () in
      let store_account = Option.map (fun (a, _) -> (a, "dag-store")) account in
      let store = Perfect_sig.create ?account:store_account () in
      let sp = Dag.create () in
      let spawns = ref 0 and joins = ref 0 in
      (* Stored times are [stamp*2 + locked]; both orders are probed so a
         reordered stream (e.g. behind the MT push layer) cannot turn an
         ordered pair into a race. *)
      let race_of ~src_time ~sink_time =
        let both_locked = src_time land 1 = 1 && sink_time land 1 = 1 in
        let src = src_time lsr 1 and sink = sink_time lsr 1 in
        (not both_locked)
        && (not (Dag.precedes sp src sink))
        && not (Dag.precedes sp sink src)
      in
      let algo =
        Algo.Over_perfect.create ~track_init:config.Config.track_init
          ~war_requires_prior_write:config.Config.war_requires_prior_write ~race_of ~store
          ~deps ()
      in
      let time_of ~thread ~locked = (Dag.stamp sp ~thread * 2) + Bool.to_int locked in
      let memory : Event.memory_handler =
        {
          Event.on_read =
            (fun ~addr ~loc ~var ~thread ~time:_ ~locked ->
              Algo.Over_perfect.on_read algo ~addr
                ~payload:(Payload.pack_unsafe ~loc ~var ~thread)
                ~time:(time_of ~thread ~locked));
          on_write =
            (fun ~addr ~loc ~var ~thread ~time:_ ~locked ->
              Algo.Over_perfect.on_write algo ~addr
                ~payload:(Payload.pack_unsafe ~loc ~var ~thread)
                ~time:(time_of ~thread ~locked));
        }
      in
      let sync : Event.sync_handler =
        {
          Event.on_sync =
            (fun ~kind ~obj ~thread ~time:_ ->
              match kind with
              | Event.Task_spawn ->
                incr spawns;
                Dag.on_spawn sp ~parent:thread ~child:obj
              | Event.Task_join ->
                incr joins;
                Dag.on_join sp ~parent:thread ~child:obj
              | Event.Lock_acquire | Event.Lock_release ->
                (* mutual exclusion travels on each access's locked bit *)
                ());
        }
      in
      let alloc : Event.alloc_handler =
        {
          Event.on_alloc = (fun ~base:_ ~len:_ ~var:_ -> ());
          on_free =
            (fun ~base ~len ~var:_ ->
              if config.Config.lifetime_analysis then
                for a = base to base + len - 1 do
                  Algo.Over_perfect.on_free algo ~addr:a
                done);
        }
      in
      let hooks =
        Ddp_minir.Handler.hooks
          (Ddp_minir.Handler.make ~memory
             ~region:(Serial_profiler.region_handler regions)
             ~frame:Event.null_frame ~alloc ~sync ())
      in
      {
        Engine.hooks;
        finish =
          (fun () ->
            {
              Engine.deps;
              regions;
              health = Engine.health_of_regions regions;
              store_bytes = Perfect_sig.bytes store;
              extra = Dag { strands = Dag.strands sp; spawns = !spawns; joins = !joins };
            });
      })

type Engine.extra += Hybrid_dag of { pruned_events : int; pruned_sites : int; inner : Engine.extra }

(* The dag engine behind the same static prune gate: the race lint's
   prune plan marks variables with no static dependence edge at all
   (hence no race flag either), and by the race-soundness contract the
   dag engine cannot derive a non-INIT dependence — let alone a race —
   from their accesses on any schedule, so skipping them leaves the
   dependence and race sets bit-identical while the perfect store holds
   fewer addresses. *)
let hybrid_dag =
  Engine.make ~name:"hybrid-dag"
    ~description:
      "SP-DAG race engine skipping statically race- and dependence-free accesses (Config.static_prune)"
    ~exact:true
    ~consumes:Event.Class.[ Memory; Region; Frame; Alloc; Sync ]
    (fun ?account config ->
      prune_session config
        (dag.Engine.create ?account config)
        ~wrap:(fun ~events ~sites inner ->
          Hybrid_dag { pruned_events = events; pruned_sites = sites; inner }))

let builtin = [ serial; perfect; parallel; mt; hybrid; dag; hybrid_dag ]
let () = List.iter Engine.register builtin
