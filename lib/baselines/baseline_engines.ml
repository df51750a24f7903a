(* Engine adapters for the Sec. III-B baseline profilers, registered
   under "shadow", "hashtable" and "stride".  Each is the ~30-line
   pattern the Engine abstraction exists for: build the store pair, run
   Algorithm 1 over it via the shared serial hook wiring, report the
   store's own byte accounting.

   Core cannot depend on this library, so registration is explicit:
   call [register] (idempotent) before resolving these mode names. *)

module Core = Ddp_core
module Engine = Ddp_core.Engine

(* Paired shadow and hash stores satisfy Algo.STORE, so they reuse the
   exact serial wiring — only the store constructors and byte counters
   differ. *)
let of_store (type s a) ~name ~description ~category
    (module A : Core.Algo.S with type store = s and type t = a)
    ~(create_store : ?account:Ddp_util.Mem_account.t * string -> unit -> s)
    ~(store_bytes : s -> int) =
  Engine.make ~name ~description ~exact:true (fun ?account (config : Core.Config.t) ->
      let deps = Core.Dep_store.create ?account () in
      let regions = Core.Region.create () in
      let store_account = Option.map (fun (a, _) -> (a, category)) account in
      let store = create_store ?account:store_account () in
      let algo =
        A.create ~track_init:config.track_init
          ~war_requires_prior_write:config.war_requires_prior_write
          ~check_timestamps:config.check_timestamps ~store ~deps ()
      in
      let hooks =
        Core.Serial_profiler.make_hooks (module A) algo regions
          ~lifetime:config.lifetime_analysis ~section_level:config.section_level
      in
      {
        Engine.hooks;
        finish =
          (fun () ->
            {
              Engine.deps;
              regions;
              health = Engine.health_of_regions regions;
              store_bytes = store_bytes store;
              extra = Engine.No_extra;
            });
      })

let shadow =
  of_store ~name:"shadow"
    ~description:"paged shadow memory: exact per-address store (Sec. III-B baseline)"
    ~category:"shadow"
    (module Shadow_memory.Algo_paged)
    ~create_store:Shadow_memory.Paged_pair.create ~store_bytes:Shadow_memory.Paged_pair.bytes

let hashtable =
  of_store ~name:"hashtable"
    ~description:"chained hash table: exact but 1.5-3.7x slower than signatures (Sec. III-B)"
    ~category:"hashtable"
    (module Hash_profiler.Algo)
    ~create_store:Hash_profiler.Pair.create ~store_bytes:Hash_profiler.Pair.bytes

type Engine.extra += Stride of { records : int }

(* SD3 strides have their own access bookkeeping (no STORE instance), so
   this adapter wires the hooks by hand; region events still feed a
   Region.t so reports and loop tables keep working. *)
let stride =
  Engine.make ~name:"stride"
    ~description:"SD3-style stride compression: range-granularity dependences (related work)"
    ~exact:false
    (fun ?account:_ (_ : Core.Config.t) ->
      let t = Stride_sd3.create () in
      let regions = Core.Region.create () in
      let hooks =
        {
          Ddp_minir.Event.null with
          Ddp_minir.Event.on_read =
            (fun ~addr ~loc ~var ~thread ~time ~locked:_ ->
              Stride_sd3.on_read t ~addr ~payload:(Core.Payload.pack_unsafe ~loc ~var ~thread) ~time);
          on_write =
            (fun ~addr ~loc ~var ~thread ~time ~locked:_ ->
              Stride_sd3.on_write t ~addr ~payload:(Core.Payload.pack_unsafe ~loc ~var ~thread) ~time);
          on_region_enter =
            (fun ~loc ~kind:Ddp_minir.Event.Loop ~thread ~time ->
              Core.Region.on_enter regions ~loc ~thread ~time);
          on_region_iter =
            (fun ~loc ~thread ~time -> Core.Region.on_iter regions ~loc ~thread ~time);
          on_region_exit =
            (fun ~loc ~end_loc ~kind:Ddp_minir.Event.Loop ~iterations ~thread ~time:_ ->
              Core.Region.on_exit regions ~loc ~end_loc ~iterations ~thread);
        }
      in
      {
        Engine.hooks;
        finish =
          (fun () ->
            {
              Engine.deps = Stride_sd3.deps t;
              regions;
              health = Engine.health_of_regions regions;
              store_bytes = Stride_sd3.bytes t;
              extra = Stride { records = Stride_sd3.records t };
            });
      })

let engines = [ shadow; hashtable; stride ]
let register () = List.iter Engine.register engines
let () = register ()
