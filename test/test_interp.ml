(* Tests for the MiniIR interpreter: semantics, instrumentation events,
   scoping/lifetime, loops and regions, simulated threads and locks. *)

open Ddp_minir
module B = Builder

let run prog = Interp.run prog
let trace prog = fst (Interp.trace prog)

let writes tr = List.filter (function Event.Write _ -> true | _ -> false) tr
let reads tr = List.filter (function Event.Read _ -> true | _ -> false) tr

(* -- semantics via assertions ------------------------------------------- *)

let test_arith_semantics () =
  let prog =
    B.program ~name:"t"
      [
        B.local "x" B.(i 3 +: (i 4 *: i 5));
        B.assert_ B.(v "x" =: i 23);
        B.local "y" B.((i 17 %: i 5) +: (i 1 <<: i 4));
        B.assert_ B.(v "y" =: i 18);
        B.assert_ B.(f 1.5 +: f 2.5 =: f 4.0);
        B.assert_ B.(min_ (i 3) (i 9) =: i 3);
      ]
  in
  ignore (run prog)

let test_assert_fails () =
  let prog = B.program ~name:"t" [ B.assert_ B.(i 1 =: i 2) ] in
  Alcotest.check_raises "assertion raises"
    (Interp.Runtime_error "assertion failed in target program") (fun () -> ignore (run prog))

let test_array_semantics () =
  let prog =
    B.program ~name:"t"
      [
        B.arr "a" (B.i 10);
        B.for_ "i" (B.i 0) (B.i 10) (fun iv -> [ B.store "a" iv B.(iv *: i 2) ]);
        B.assert_ B.(idx "a" (i 7) =: i 14);
        B.assert_ B.(idx "a" (i 0) =: i 0);
      ]
  in
  ignore (run prog)

let test_if_branches () =
  let prog =
    B.program ~name:"t"
      [
        B.local "x" (B.i 0);
        B.if_ B.(i 3 >: i 2) [ B.assign "x" (B.i 1) ] [ B.assign "x" (B.i 2) ];
        B.assert_ B.(v "x" =: i 1);
        B.if_ B.(i 3 <: i 2) [ B.assign "x" (B.i 1) ] [ B.assign "x" (B.i 2) ];
        B.assert_ B.(v "x" =: i 2);
      ]
  in
  ignore (run prog)

let test_while_loop () =
  let prog =
    B.program ~name:"t"
      [
        B.local "n" (B.i 0);
        B.local "s" (B.i 0);
        B.while_ B.(v "n" <: i 5)
          [ B.assign "s" B.(v "s" +: v "n"); B.assign "n" B.(v "n" +: i 1) ];
        B.assert_ B.(v "s" =: i 10);
      ]
  in
  ignore (run prog)

let test_for_step () =
  let prog =
    B.program ~name:"t"
      [
        B.local "s" (B.i 0);
        B.for_ ~step:(B.i 3) "i" (B.i 0) (B.i 10) (fun iv -> [ B.assign "s" B.(v "s" +: iv) ]);
        (* 0 + 3 + 6 + 9 *)
        B.assert_ B.(v "s" =: i 18);
      ]
  in
  ignore (run prog)

(* -- errors --------------------------------------------------------------- *)

let expect_error name prog =
  match Interp.run prog with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Runtime_error")

let test_undefined_var () =
  expect_error "undefined" (B.program ~name:"t" [ B.assign "nope" (B.i 1) ])

let test_out_of_bounds () =
  expect_error "oob"
    (B.program ~name:"t" [ B.arr "a" (B.i 4); B.store "a" (B.i 4) (B.i 0) ])

let test_use_after_free () =
  expect_error "uaf"
    (B.program ~name:"t" [ B.arr "a" (B.i 4); B.free "a"; B.store "a" (B.i 0) (B.i 0) ])

let test_scalar_array_confusion () =
  expect_error "kind" (B.program ~name:"t" [ B.local "x" (B.i 0); B.store "x" (B.i 0) (B.i 1) ])

let test_unlock_not_held () =
  expect_error "unlock" (B.program ~name:"t" [ B.unlock 3 ])

let test_nested_par_rejected () =
  expect_error "nested par"
    (B.program ~name:"t" [ B.par [ [ B.par [ [ B.nop ] ] ] ] ])

(* -- instrumentation events ---------------------------------------------- *)

let test_event_counts () =
  let prog =
    B.program ~name:"t"
      [
        B.arr "a" (B.i 4);
        B.store "a" (B.i 0) (B.i 1);  (* 1 write *)
        B.local "x" (B.idx "a" (B.i 0));  (* 1 read + 1 write *)
      ]
  in
  let stats = run prog in
  Alcotest.(check int) "writes" 2 stats.writes;
  Alcotest.(check int) "reads" 1 stats.reads

let test_trace_order_and_timestamps () =
  let prog =
    B.program ~name:"t" [ B.local "x" (B.i 1); B.local "y" (B.v "x"); B.assign "x" (B.v "y") ]
  in
  let tr = trace prog in
  let times =
    List.filter_map
      (function Event.Read { time; _ } | Event.Write { time; _ } -> Some time | _ -> None)
      tr
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly increasing timestamps" true (increasing times);
  Alcotest.(check int) "3 writes 2 reads" 5 (List.length times)

let test_region_events () =
  let prog =
    B.program ~name:"t"
      [ B.arr "a" (B.i 8); B.for_ "i" (B.i 0) (B.i 8) (fun iv -> [ B.store "a" iv (B.i 0) ]) ]
  in
  let tr = trace prog in
  let enters = List.filter (function Event.Region_enter _ -> true | _ -> false) tr in
  let iters = List.filter (function Event.Region_iter _ -> true | _ -> false) tr in
  (match
     List.filter_map
       (function
         | Event.Region_exit { iterations; loc; end_loc; _ } -> Some (iterations, loc, end_loc)
         | _ -> None)
       tr
   with
  | [ (iterations, loc, end_loc) ] ->
    Alcotest.(check int) "iterations" 8 iterations;
    Alcotest.(check bool) "end line after begin" true (Loc.line end_loc > Loc.line loc)
  | l -> Alcotest.failf "expected 1 exit, got %d" (List.length l));
  Alcotest.(check int) "one enter" 1 (List.length enters);
  Alcotest.(check int) "8 iter marks" 8 (List.length iters)

let test_alloc_free_events () =
  let prog = B.program ~name:"t" [ B.arr "a" (B.i 4); B.free "a" ] in
  let tr = trace prog in
  let allocs = List.filter (function Event.Alloc _ -> true | _ -> false) tr in
  let frees = List.filter (function Event.Free _ -> true | _ -> false) tr in
  Alcotest.(check int) "one alloc" 1 (List.length allocs);
  Alcotest.(check int) "one free" 1 (List.length frees)

let test_scope_exit_frees () =
  (* Locals declared in an if-branch are freed at branch exit. *)
  let prog =
    B.program ~name:"t"
      [ B.if_ (B.i 1) [ B.local "tmp" (B.i 1); B.local "tmp2" (B.i 2) ] [] ]
  in
  let tr = trace prog in
  let frees = List.filter (function Event.Free _ -> true | _ -> false) tr in
  Alcotest.(check int) "branch locals freed" 2 (List.length frees)

let test_loop_index_self_deps_shape () =
  (* The for header must read and write its index each iteration,
     producing Fig.-1-style self-dependences at the header line. *)
  let prog =
    B.program ~name:"t" [ B.for_ "i" (B.i 0) (B.i 3) (fun _ -> [ B.nop ]) ]
  in
  let tr = trace prog in
  let header_writes =
    List.filter_map (function Event.Write { loc; _ } -> Some (Loc.line loc) | _ -> None) tr
  in
  (* init + 3 increments *)
  Alcotest.(check int) "index writes" 4 (List.length header_writes);
  Alcotest.(check bool) "all at header line" true (List.for_all (fun l -> l = 1) header_writes)

(* -- determinism and threads --------------------------------------------- *)

let par_counter_prog =
  B.program ~name:"t"
    [
      B.arr "slots" (B.i 4);
      B.par
        (List.init 4 (fun t ->
             [
               B.for_ (Printf.sprintf "i%d" t) (B.i 0) (B.i 10) (fun _ ->
                   [ B.store "slots" (B.i t) B.(idx "slots" (i t) +: i 1) ]);
             ]));
      B.assert_ B.(idx "slots" (i 0) =: i 10);
      B.assert_ B.(idx "slots" (i 3) =: i 10);
    ]

let test_par_executes_all_threads () = ignore (run par_counter_prog)

let test_par_thread_ids () =
  let tr = trace par_counter_prog in
  let tids =
    List.filter_map (function Event.Write { thread; _ } -> Some thread | _ -> None) tr
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "main + 4 workers" [ 0; 1; 2; 3; 4 ] tids;
  let ends = List.filter (function Event.Thread_end _ -> true | _ -> false) tr in
  Alcotest.(check int) "thread_end for workers + main" 5 (List.length ends)

let test_schedule_determinism () =
  let t1 = Interp.trace ~sched_seed:11 par_counter_prog |> fst in
  let t2 = Interp.trace ~sched_seed:11 par_counter_prog |> fst in
  let t3 = Interp.trace ~sched_seed:12 par_counter_prog |> fst in
  Alcotest.(check bool) "same seed same trace" true (t1 = t2);
  Alcotest.(check bool) "different seed different interleaving" true (t1 <> t3)

let test_interleaving_actually_happens () =
  let tr = trace par_counter_prog in
  (* Find a thread id change between consecutive access events: threads
     must not simply run to completion one after another. *)
  let tids =
    List.filter_map
      (function
        | Event.Write { thread; _ } | Event.Read { thread; _ } when thread > 0 -> Some thread
        | _ -> None)
      tr
  in
  let changes = ref 0 in
  let rec count = function
    | a :: (b :: _ as rest) ->
      if a <> b then incr changes;
      count rest
    | _ -> ()
  in
  count tids;
  Alcotest.(check bool) "threads interleave" true (!changes > 4)

let test_locks_mutual_exclusion () =
  (* With locks, the final counter equals the sum of increments even
     though threads interleave: read-modify-write is atomic. *)
  let prog =
    B.program ~name:"t"
      [
        B.local "c" (B.i 0);
        B.par
          (List.init 3 (fun t ->
               [
                 B.for_ (Printf.sprintf "i%d" t) (B.i 0) (B.i 20) (fun _ ->
                     [ B.lock 1; B.assign "c" B.(v "c" +: i 1); B.unlock 1 ]);
               ]));
        B.assert_ B.(v "c" =: i 60);
      ]
  in
  ignore (run prog)

let test_locked_flag_in_events () =
  let prog =
    B.program ~name:"t"
      [
        B.local "c" (B.i 0);
        B.par [ [ B.lock 1; B.assign "c" (B.i 1); B.unlock 1; B.assign "c" (B.i 2) ] ];
      ]
  in
  let tr = trace prog in
  let flags =
    List.filter_map
      (function Event.Write { locked; thread = 1; _ } -> Some locked | _ -> None)
      tr
  in
  Alcotest.(check (list bool)) "locked then unlocked" [ true; false ] flags

let test_lines_numbered_in_order () =
  let prog =
    B.program ~name:"t"
      [ B.local "a" (B.i 0); B.for_ "i" (B.i 0) (B.i 2) (fun _ -> [ B.nop ]); B.local "b" (B.i 0) ]
  in
  (* local a = line 1, for = 2, nop = 3, end = 4, local b = 5 *)
  let stats = run prog in
  Alcotest.(check int) "line count" 5 stats.lines

(* -- fork-join task runtime ---------------------------------------------- *)

(* Every frame (procedure body included) implicitly syncs its children
   before exit and before freeing its locals, so the caller sees the
   child's effect no matter what the scheduler chose. *)
let task_prog () =
  (* the statement after the spawn is the preemption point: schedulers
     that favor the child drain it there, before the implicit sync *)
  B.program ~name:"t"
    ~funcs:
      [
        B.proc "p" []
          [ B.spawn [ B.store "a" (B.i 0) (B.i 7) ]; B.store "a" (B.i 1) (B.i 1) ];
      ]
    [ B.arr "a" (B.i 4); B.call_proc "p" []; B.assert_ B.(idx "a" (i 0) =: i 7) ]

let test_task_implicit_frame_sync () =
  (* both extreme policies: always the lowest-index runnable task, and
     always the highest — the assert must hold under either *)
  List.iter
    (fun pick ->
      ignore (Interp.run ~schedule:pick (task_prog ())))
    [ (fun _ -> 0); (fun n -> n - 1) ]

(* The sync_stalls stat: one extreme policy starves the child until the
   frame sync must wait for it; the other drains the child first and
   never stalls.  Exactly one of the two runs stalls. *)
let test_task_sync_stalls_stat () =
  let stalls pick = (Interp.run ~schedule:pick (task_prog ())).Interp.sync_stalls in
  let a = stalls (fun _ -> 0) and b = stalls (fun n -> n - 1) in
  Alcotest.(check bool) "one policy stalls, the other does not" true
    (min a b = 0 && max a b > 0)

let test_task_spawn_join_events () =
  let tr = trace (task_prog ()) in
  let spawns =
    List.filter_map
      (function Event.Sync { kind = Event.Task_spawn; obj; _ } -> Some obj | _ -> None)
      tr
  in
  let joins =
    List.filter_map
      (function Event.Sync { kind = Event.Task_join; obj; _ } -> Some obj | _ -> None)
      tr
  in
  Alcotest.(check (list int)) "every spawned child is joined" spawns (List.sort compare joins);
  Alcotest.(check bool) "child ran between its spawn and its join" true
    (List.for_all
       (fun c ->
         List.exists (function Event.Write { thread; _ } -> thread = c | _ -> false) tr)
       spawns)

let test_par_spawn_mixing_rejected () =
  let prog =
    B.program ~name:"t"
      [
        B.arr "a" (B.i 4);
        B.spawn [ B.store "a" (B.i 1) (B.i 1) ];
        B.par [ [ B.store "a" (B.i 2) (B.i 2) ]; [ B.store "a" (B.i 3) (B.i 3) ] ];
      ]
  in
  Alcotest.check_raises "mixing rejected"
    (Interp.Runtime_error "Par and Spawn cannot be mixed") (fun () -> ignore (run prog))

let test_task_schedule_validated () =
  Alcotest.check_raises "out-of-range pick rejected"
    (Interp.Runtime_error "schedule chose 5 out of 1 runnable task(s)") (fun () ->
      ignore (Interp.run ~schedule:(fun _ -> 5) (task_prog ())))

(* Seeded scheduler, no hook: same seed, identical trace — task programs
   stay replayable like Par programs. *)
let test_task_replay_deterministic () =
  let tr seed = fst (Interp.trace ~sched_seed:seed (task_prog ())) in
  Alcotest.(check bool) "same seed, same interleaving" true (tr 11 = tr 11)

(* Schedule identity: the Trace_file v2 encoding of each task workload
   at scale 1, under two seeds and two injected schedules, must not
   change when the scheduler's data structures do.  The digests were
   recorded with the linear-rescan scheduler the Fenwick tree replaced. *)
let golden_traces =
  [
    ("fib-task", "seed 1", "a0ad0cc00dcc084e2a1092271c4a7979");
    ("fib-task", "seed 42", "5b70172f1430cdc4f4d7a5692bf9b006");
    ("fib-task", "n - 1", "e76772c10e8b704652832f1ee4dda63b");
    ("fib-task", "n / 2", "c286badabb3fc90bf6fb7d1ec616aaed");
    ("fib-task-racy", "seed 1", "842473edf9d3f32b88341a68ce02b6df");
    ("fib-task-racy", "seed 42", "314c2b9a6972194592773afb9df1ae74");
    ("fib-task-racy", "n - 1", "9bd9be33054f121848e6d20c003e7493");
    ("fib-task-racy", "n / 2", "54025b1f02b21e38a3f5d7957985d781");
    ("msort-task", "seed 1", "365cd0a559f2019bad29595ce86e1eac");
    ("msort-task", "seed 42", "d6681aadf1278d9e9791c9d67dc65606");
    ("msort-task", "n - 1", "9748bb13089540527f9e75bd73a6f98b");
    ("msort-task", "n / 2", "ac88dafb06ae94b629862be7871df983");
    ("msort-task-racy", "seed 1", "f448120b3b429da1d19be363732995de");
    ("msort-task-racy", "seed 42", "10480a7b4c5ddadce9bbca098655ad79");
    ("msort-task-racy", "n - 1", "94a645c15afdce1b7c2cb08c8a512e78");
    ("msort-task-racy", "n / 2", "4f9e21b182b4b86383761a411b4748a2");
    ("scan-task", "seed 1", "71ef4e2301007feaf9843fbd003bbd5f");
    ("scan-task", "seed 42", "7c09037f71295e56c0b2df7e6ed877e4");
    ("scan-task", "n - 1", "f9b658423652f44bb4b3aeaddd66e77f");
    ("scan-task", "n / 2", "f9b658423652f44bb4b3aeaddd66e77f");
    ("scan-task-racy", "seed 1", "1a036750e77a9389ec37567027e18a06");
    ("scan-task-racy", "seed 42", "e2bf41a7f272c50a2494f9c3e48238d3");
    ("scan-task-racy", "n - 1", "45b2dae081eb6e4fea3ac74bec4ef9aa");
    ("scan-task-racy", "n / 2", "45b2dae081eb6e4fea3ac74bec4ef9aa");
  ]

let trace_digest name how =
  let prog = (Ddp_workloads.Registry.find name).Ddp_workloads.Wl.seq ~scale:1 in
  let symtab = Symtab.create () in
  let events, _ =
    match how with
    | "seed 1" -> Interp.trace ~sched_seed:1 ~input_seed:1 ~symtab prog
    | "seed 42" -> Interp.trace ~sched_seed:42 ~input_seed:42 ~symtab prog
    | "n - 1" -> Interp.trace ~schedule:(fun n -> n - 1) ~symtab prog
    | "n / 2" -> Interp.trace ~schedule:(fun n -> n / 2) ~symtab prog
    | _ -> invalid_arg how
  in
  let buf = Buffer.create 65536 in
  Trace_file.to_buffer buf events symtab;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_task_traces_golden () =
  List.iter
    (fun (name, how, expected) ->
      Alcotest.(check string) (name ^ ", " ^ how) expected (trace_digest name how))
    golden_traces

(* Only children of the innermost frame wake a task parked at a sync.
   The root spawns A, then calls [p], which spawns B and syncs.  Always
   picking the lowest runnable tid runs the root until it parks on B,
   then A to completion — which must not wake the root, still waiting
   for B — then B, and only then the root again. *)
let test_task_inner_sync_ignores_outer_child () =
  let prog =
    B.program ~name:"t"
      ~funcs:
        [
          B.proc "p" []
            [ B.spawn [ B.store "a" (B.i 1) (B.i 1); B.store "a" (B.i 1) (B.i 2) ]; B.sync () ];
        ]
      [
        B.arr "a" (B.i 4);
        B.spawn [ B.store "a" (B.i 0) (B.i 1); B.store "a" (B.i 0) (B.i 2) ];
        B.call_proc "p" [];
        B.store "a" (B.i 2) (B.i 3);
      ]
  in
  let tr, stats = Interp.trace ~schedule:(fun _ -> 0) prog in
  let tr = Array.of_list tr in
  let positions p =
    List.filter (fun i -> p tr.(i)) (List.init (Array.length tr) Fun.id)
  in
  let writes_of t = positions (function Event.Write { thread; _ } -> thread = t | _ -> false) in
  let sync_of kind t obj =
    match
      positions (function
        | Event.Sync s -> s.kind = kind && s.thread = t && s.obj = obj
        | _ -> false)
    with
    | [ i ] -> i
    | l -> Alcotest.failf "expected one sync event, got %d" (List.length l)
  in
  let root_events =
    positions (function
      | Event.Write { thread; _ } | Event.Read { thread; _ } -> thread = 0
      | Event.Sync { thread; _ } | Event.Call { thread; _ } | Event.Return { thread; _ } ->
        thread = 0
      | _ -> false)
  in
  let a = writes_of 1 and b = writes_of 2 in
  let spawn_b = sync_of Event.Task_spawn 0 2 and join_b = sync_of Event.Task_join 0 2 in
  let last = List.fold_left max (-1) in
  Alcotest.(check int) "two writes each" 4 (List.length a + List.length b);
  Alcotest.(check bool) "A ran after the root parked on B" true (List.hd a > spawn_b);
  Alcotest.(check bool) "A finished before B started" true (last a < List.hd b);
  Alcotest.(check bool) "the root joined B only after B finished" true (last b < join_b);
  Alcotest.(check bool) "the root stayed parked from B's spawn to its join" true
    (List.for_all (fun i -> i <= spawn_b || i >= join_b) root_events);
  Alcotest.(check int) "one stalled sync" 1 stats.Interp.sync_stalls

(* Thread ids share a 10-bit payload field: tids up to [Loc.max_thread]
   run, and the first task or Par arm past it is refused. *)
let spawn_many k =
  B.program ~name:"t"
    [
      B.arr "a" (B.i 1);
      B.for_ "i" (B.i 0) (B.i k) (fun _ -> [ B.spawn [ B.store "a" (B.i 0) (B.i 1) ] ]);
    ]

let par_many k =
  B.program ~name:"t"
    [ B.arr "a" (B.i 1); B.par (List.init k (fun _ -> [ B.store "a" (B.i 0) (B.i 1) ])) ]

let task_limit = Interp.Runtime_error "task limit (1024) exceeded"

let test_task_limit () =
  Alcotest.(check int) "1023 spawned tasks, tids up to 1023" Loc.max_thread
    (List.fold_left
       (fun m -> function Event.Write { thread; _ } -> max m thread | _ -> m)
       0
       (trace (spawn_many Loc.max_thread)));
  Alcotest.check_raises "tid 1024 refused" task_limit (fun () ->
      ignore (run (spawn_many (Loc.max_thread + 1))));
  ignore (run (par_many Loc.max_thread));
  Alcotest.check_raises "Par arm 1024 refused" task_limit (fun () ->
      ignore (run (par_many (Loc.max_thread + 1))));
  Alcotest.check_raises "msort-task at scale 16 needs 2047 tids" task_limit (fun () ->
      ignore (run ((Ddp_workloads.Registry.find "msort-task").Ddp_workloads.Wl.seq ~scale:16)))

let suite =
  [
    Alcotest.test_case "arith semantics" `Quick test_arith_semantics;
    Alcotest.test_case "assert fails" `Quick test_assert_fails;
    Alcotest.test_case "array semantics" `Quick test_array_semantics;
    Alcotest.test_case "if branches" `Quick test_if_branches;
    Alcotest.test_case "while loop" `Quick test_while_loop;
    Alcotest.test_case "for step" `Quick test_for_step;
    Alcotest.test_case "undefined var" `Quick test_undefined_var;
    Alcotest.test_case "array out of bounds" `Quick test_out_of_bounds;
    Alcotest.test_case "use after free" `Quick test_use_after_free;
    Alcotest.test_case "scalar/array confusion" `Quick test_scalar_array_confusion;
    Alcotest.test_case "unlock not held" `Quick test_unlock_not_held;
    Alcotest.test_case "nested par rejected" `Quick test_nested_par_rejected;
    Alcotest.test_case "event counts" `Quick test_event_counts;
    Alcotest.test_case "trace order and timestamps" `Quick test_trace_order_and_timestamps;
    Alcotest.test_case "region events" `Quick test_region_events;
    Alcotest.test_case "alloc/free events" `Quick test_alloc_free_events;
    Alcotest.test_case "scope exit frees" `Quick test_scope_exit_frees;
    Alcotest.test_case "loop index self-deps" `Quick test_loop_index_self_deps_shape;
    Alcotest.test_case "par executes all threads" `Quick test_par_executes_all_threads;
    Alcotest.test_case "par thread ids" `Quick test_par_thread_ids;
    Alcotest.test_case "schedule determinism" `Quick test_schedule_determinism;
    Alcotest.test_case "interleaving happens" `Quick test_interleaving_actually_happens;
    Alcotest.test_case "locks mutual exclusion" `Quick test_locks_mutual_exclusion;
    Alcotest.test_case "locked flag in events" `Quick test_locked_flag_in_events;
    Alcotest.test_case "lines numbered" `Quick test_lines_numbered_in_order;
    Alcotest.test_case "task: implicit frame sync" `Quick test_task_implicit_frame_sync;
    Alcotest.test_case "task: sync_stalls stat" `Quick test_task_sync_stalls_stat;
    Alcotest.test_case "task: spawn/join events" `Quick test_task_spawn_join_events;
    Alcotest.test_case "task: Par mixing rejected" `Quick test_par_spawn_mixing_rejected;
    Alcotest.test_case "task: schedule hook validated" `Quick test_task_schedule_validated;
    Alcotest.test_case "task: replay deterministic" `Quick test_task_replay_deterministic;
    Alcotest.test_case "task: traces match golden digests" `Quick test_task_traces_golden;
    Alcotest.test_case "task: inner sync ignores outer child" `Quick
      test_task_inner_sync_ignores_outer_child;
    Alcotest.test_case "task: thread id limit" `Quick test_task_limit;
  ]

(* silence unused warnings for helpers used in some configs *)
let _ = (writes, reads)
