(* End-to-end properties over randomly generated MiniIR programs: the
   strongest correctness evidence in the suite, because every layer
   (interpreter, instrumentation, Algorithm 1, pipeline) is exercised on
   program shapes nobody hand-picked. *)

module Event = Ddp_minir.Event

let prop_trace_deterministic =
  QCheck.Test.make ~name:"same program, same trace" ~count:100 Gen_prog.arbitrary_program
    (fun prog ->
      let t1, _ = Ddp_minir.Interp.trace prog in
      let t2, _ = Ddp_minir.Interp.trace prog in
      t1 = t2)

let prop_regions_balanced =
  QCheck.Test.make ~name:"region events balanced and properly nested" ~count:100
    Gen_prog.arbitrary_program (fun prog ->
      let tr, _ = Ddp_minir.Interp.trace prog in
      let ok = ref true in
      let stack = ref [] in
      List.iter
        (fun e ->
          match e with
          | Event.Region_enter { loc; _ } -> stack := loc :: !stack
          | Event.Region_exit { loc; _ } -> (
            match !stack with
            | top :: rest when top = loc -> stack := rest
            | _ -> ok := false)
          | Event.Region_iter { loc; _ } -> (
            match !stack with
            | top :: _ when top = loc -> ()
            | _ -> ok := false)
          | _ -> ())
        tr;
      !ok && !stack = [])

let prop_alloc_free_balanced =
  QCheck.Test.make ~name:"every allocation is freed exactly once" ~count:100
    Gen_prog.arbitrary_program (fun prog ->
      let tr, _ = Ddp_minir.Interp.trace prog in
      let live = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun e ->
          match e with
          | Event.Alloc { base; len; _ } ->
            if Hashtbl.mem live base then ok := false else Hashtbl.add live base len
          | Event.Free { base; len; _ } -> (
            match Hashtbl.find_opt live base with
            | Some l when l = len -> Hashtbl.remove live base
            | Some _ | None -> ok := false)
          | _ -> ())
        tr;
      !ok && Hashtbl.length live = 0)

let prop_accesses_within_allocations =
  QCheck.Test.make ~name:"accesses target live allocations" ~count:100
    Gen_prog.arbitrary_program (fun prog ->
      let tr, _ = Ddp_minir.Interp.trace prog in
      let live = Hashtbl.create 16 in
      let covered addr =
        Hashtbl.fold (fun base len acc -> acc || (addr >= base && addr < base + len)) live false
      in
      List.for_all
        (fun e ->
          match e with
          | Event.Alloc { base; len; _ } ->
            Hashtbl.replace live base len;
            true
          | Event.Free { base; _ } ->
            Hashtbl.remove live base;
            true
          | Event.Read { addr; _ } | Event.Write { addr; _ } -> covered addr
          | _ -> true)
        tr)

(* Serial perfect profiling agrees with the brute-force oracle on the
   whole program's access trace. *)
let prop_perfect_matches_oracle_end_to_end =
  QCheck.Test.make ~name:"perfect profiler == oracle on random programs" ~count:60
    Gen_prog.arbitrary_program (fun prog ->
      let tr, _ = Ddp_minir.Interp.trace prog in
      (* oracle over the trace, honoring frees *)
      let last_w = Hashtbl.create 64 and last_r = Hashtbl.create 64 in
      let expected = ref Ddp_core.Dep_store.Key_set.empty in
      let add kind sink src =
        expected := Ddp_core.Dep_store.Key_set.add { Ddp_core.Dep.kind; sink; src; race = false } !expected
      in
      List.iter
        (fun e ->
          match e with
          | Event.Write { addr; loc; var; thread; _ } ->
            let p = Ddp_core.Payload.pack ~loc ~var ~thread in
            (match Hashtbl.find_opt last_w addr with
            | None -> add Ddp_core.Dep.INIT p 0
            | Some w -> add Ddp_core.Dep.WAW p w);
            (match Hashtbl.find_opt last_r addr with
            | None -> ()
            | Some r -> add Ddp_core.Dep.WAR p r);
            Hashtbl.replace last_w addr p
          | Event.Read { addr; loc; var; thread; _ } ->
            let p = Ddp_core.Payload.pack ~loc ~var ~thread in
            (match Hashtbl.find_opt last_w addr with
            | None -> ()
            | Some w -> add Ddp_core.Dep.RAW p w);
            Hashtbl.replace last_r addr p
          | Event.Free { base; len; _ } ->
            for a = base to base + len - 1 do
              Hashtbl.remove last_w a;
              Hashtbl.remove last_r a
            done
          | _ -> ())
        tr;
      let o = Ddp_core.Profiler.profile ~mode:"perfect" prog in
      Ddp_core.Dep_store.Key_set.equal (Ddp_core.Dep_store.key_set o.deps) !expected)

(* The full parallel pipeline agrees with the sharded serial reference on
   whole random programs. *)
let prop_parallel_matches_sharded_end_to_end =
  QCheck.Test.make ~name:"parallel pipeline == sharded reference on random programs" ~count:25
    Gen_prog.arbitrary_program (fun prog ->
      let config =
        {
          Ddp_core.Config.default with
          workers = 3;
          slots = 3 * 65536;
          chunk_size = 64;
          queue_capacity = 8;
          redistribution_interval = 20;
          stats_sample = 1;
        }
      in
      let reference = Ddp_core.Dep_store.create () in
      let nw = config.Ddp_core.Config.workers in
      let slots = Ddp_core.Config.slots_per_worker config in
      let shards =
        Array.init nw (fun _ ->
            Ddp_core.Algo.Over_signature.create
              ~store:(Ddp_core.Sig_store.create ~slots ())
              ~deps:reference ())
      in
      let shard addr = shards.(addr mod nw) in
      let hooks =
        {
          Event.null with
          Event.on_read =
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
      in
      let (_ : Ddp_minir.Interp.stats) = Ddp_minir.Interp.run ~hooks prog in
      let par = Ddp_core.Profiler.profile ~mode:"parallel" ~config prog in
      Ddp_core.Dep_store.Key_set.equal
        (Ddp_core.Dep_store.key_set reference)
        (Ddp_core.Dep_store.key_set par.deps))

(* The report renders for any program and mentions every loop that ran. *)
let prop_report_total =
  QCheck.Test.make ~name:"report renders and covers executed loops" ~count:60
    Gen_prog.arbitrary_program (fun prog ->
      let o = Ddp_core.Profiler.profile ~mode:"perfect" prog in
      let report = Ddp_core.Profiler.report o in
      let begins = Ddp_core.Region.fold o.regions (fun _ _ acc -> acc + 1) 0 in
      let count_sub needle =
        let nl = String.length needle and hl = String.length report in
        let rec go i acc =
          if i + nl > hl then acc
          else go (i + 1) (if String.sub report i nl = needle then acc + 1 else acc)
        in
        go 0 0
      in
      count_sub "BGN loop" = begins && count_sub "END loop" = begins)

let suite =
  [
    Test_seed.to_alcotest prop_trace_deterministic;
    Test_seed.to_alcotest prop_regions_balanced;
    Test_seed.to_alcotest prop_alloc_free_balanced;
    Test_seed.to_alcotest prop_accesses_within_allocations;
    Test_seed.to_alcotest prop_perfect_matches_oracle_end_to_end;
    Test_seed.to_alcotest prop_parallel_matches_sharded_end_to_end;
    Test_seed.to_alcotest prop_report_total;
  ]
