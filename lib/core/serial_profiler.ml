(* The serial profiler (paper Sec. III): Algorithm 1 applied inline to the
   instrumentation stream of a single run.  Works over either the real
   signature or the perfect signature; the two constructors return the
   same first-class record so callers are store-agnostic.

   The serial profiler also accepts multi-threaded targets (events then
   carry real thread ids); with [check_timestamps] it applies the race
   flagging of Sec. V-B. *)

module Event = Ddp_minir.Event
module Handler = Ddp_minir.Handler

type t = {
  hooks : Event.hooks;
  deps : Dep_store.t;
  regions : Region.t;
  set_observer : Algo.dep_observer -> unit;
  store_bytes : unit -> int;
  release : unit -> unit;
  fold_obs : Ddp_obs.Obs.t -> unit;
      (* fold end-of-run store statistics into telemetry domain 0 *)
}

(* The serial profiler subscribes to exactly these classes; frame and
   sync events are dropped by the fused null closures. *)
let consumed_classes = Event.Class.[ Memory; Region; Alloc ]

let region_handler regions : Event.region_handler =
  {
    on_region_enter =
      (fun ~loc ~kind:Event.Loop ~thread ~time -> Region.on_enter regions ~loc ~thread ~time);
    on_region_iter = (fun ~loc ~thread ~time -> Region.on_iter regions ~loc ~thread ~time);
    on_region_exit =
      (fun ~loc ~end_loc ~kind:Event.Loop ~iterations ~thread ~time:_ ->
        Region.on_exit regions ~loc ~end_loc ~iterations ~thread);
  }

let make_handler (type a) (module A : Algo.S with type t = a) (algo : a) regions
    ~(lifetime : bool) ~(section_level : bool) =
  (* Set-based profiling (Sec. VI-B): attribute the access to the
     innermost active loop region instead of the statement. *)
  let effective_loc ~loc ~thread =
    if not section_level then loc
    else
      match Region.active_stack regions ~thread with
      | a :: _ -> a.Region.a_loc
      | [] -> loc
  in
  let memory : Event.memory_handler =
    {
      on_read =
        (fun ~addr ~loc ~var ~thread ~time ~locked:_ ->
          let loc = effective_loc ~loc ~thread in
          A.on_read algo ~addr ~payload:(Payload.pack_unsafe ~loc ~var ~thread) ~time);
      on_write =
        (fun ~addr ~loc ~var ~thread ~time ~locked:_ ->
          let loc = effective_loc ~loc ~thread in
          A.on_write algo ~addr ~payload:(Payload.pack_unsafe ~loc ~var ~thread) ~time);
    }
  in
  let alloc : Event.alloc_handler =
    {
      on_alloc = (fun ~base:_ ~len:_ ~var:_ -> ());
      on_free =
        (fun ~base ~len ~var:_ ->
          if lifetime then
            for a = base to base + len - 1 do
              A.on_free algo ~addr:a
            done);
    }
  in
  Handler.make ~memory ~region:(region_handler regions) ~alloc ()

let make_hooks (type a) (module A : Algo.S with type t = a) (algo : a) regions
    ~(lifetime : bool) ~(section_level : bool) =
  Handler.hooks (make_handler (module A) algo regions ~lifetime ~section_level)

let create_signature ?account (config : Config.t) =
  let deps = Dep_store.create ?account () in
  let regions = Region.create () in
  let sig_account = Option.map (fun (a, _) -> (a, "signatures")) account in
  let store = Sig_store.create ?account:sig_account ~slots:config.slots () in
  let algo =
    Algo.Over_signature.create ~track_init:config.track_init
      ~war_requires_prior_write:config.war_requires_prior_write
      ~check_timestamps:config.check_timestamps ~store ~deps ()
  in
  let hooks =
    make_hooks (module Algo.Over_signature) algo regions ~lifetime:config.lifetime_analysis
      ~section_level:config.section_level
  in
  {
    hooks;
    deps;
    regions;
    set_observer = Algo.Over_signature.set_observer algo;
    store_bytes = (fun () -> Sig_store.bytes store);
    release = (fun () -> Sig_store.release store);
    fold_obs =
      (fun obs ->
        let module Obs = Ddp_obs.Obs in
        if Obs.enabled obs then begin
          (* The serial engine's only stage besides the Run frame itself:
             the end-of-run statistics fold gets a Merge frame so serial
             runs also show a finalize stage (and attribute its
             allocation) in the self-profiling exports. *)
          Obs.enter obs ~dom:0 Obs.Tag.Merge;
          Obs.add obs ~dom:0 Obs.C.sig_occupied (Sig_store.occupied store);
          Obs.add obs ~dom:0 Obs.C.sig_overwrites (Sig_store.overwrites store);
          Obs.add obs ~dom:0 Obs.C.bytes_signatures (Sig_store.bytes store);
          let d = Obs.leave obs ~dom:0 ~arg:1 in
          Obs.add obs ~dom:0 Obs.C.merge_ns d
        end);
  }

let create_perfect ?account (config : Config.t) =
  let deps = Dep_store.create ?account () in
  let regions = Region.create () in
  let store_account = Option.map (fun (a, _) -> (a, "perfect-store")) account in
  let store = Perfect_sig.create ?account:store_account () in
  let algo =
    Algo.Over_perfect.create ~track_init:config.track_init
      ~war_requires_prior_write:config.war_requires_prior_write
      ~check_timestamps:config.check_timestamps ~store ~deps ()
  in
  let hooks =
    make_hooks (module Algo.Over_perfect) algo regions ~lifetime:config.lifetime_analysis
      ~section_level:config.section_level
  in
  {
    hooks;
    deps;
    regions;
    set_observer = Algo.Over_perfect.set_observer algo;
    store_bytes = (fun () -> Perfect_sig.bytes store);
    release = (fun () -> ());
    fold_obs = (fun _ -> () (* the perfect store has no slot statistics *));
  }

(* Convenience: profile one program end to end. *)
let profile ?account ?(config = Config.default) ?(perfect = false) ?sched_seed ?input_seed
    ?symtab prog =
  let p = if perfect then create_perfect ?account config else create_signature ?account config in
  let stats = Ddp_minir.Interp.run ~hooks:p.hooks ?sched_seed ?input_seed ?symtab prog in
  (p, stats)
