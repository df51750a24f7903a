(* Tests for address dispatch and hot-address redistribution. *)

let test_modulo_rule () =
  let d = Ddp_core.Dispatch.create ~workers:4 ~sample:1 ~hot_set_size:10 in
  Alcotest.(check int) "mod" 3 (Ddp_core.Dispatch.worker_of d 7);
  Alcotest.(check int) "mod" 0 (Ddp_core.Dispatch.worker_of d 8)

let test_stats_sampling () =
  let d = Ddp_core.Dispatch.create ~workers:2 ~sample:4 ~hot_set_size:10 in
  for _ = 1 to 16 do
    Ddp_core.Dispatch.note_access d 5
  done;
  (* 1-in-4 sampling of 16 accesses: exactly 4 noted. *)
  Alcotest.(check int) "entries" 1 (Ddp_core.Dispatch.stats_entries d)

let test_hot_addresses_ranked () =
  let d = Ddp_core.Dispatch.create ~workers:2 ~sample:1 ~hot_set_size:2 in
  for _ = 1 to 10 do Ddp_core.Dispatch.note_access d 100 done;
  for _ = 1 to 5 do Ddp_core.Dispatch.note_access d 200 done;
  Ddp_core.Dispatch.note_access d 300;
  Alcotest.(check (list int)) "top-2 hottest first" [ 100; 200 ] (Ddp_core.Dispatch.hot_addresses d)

let test_rebalance_moves_skewed_hot_set () =
  (* 4 hot addresses, all congruent mod 4 to worker 0: redistribution
     must spread them round-robin. *)
  let d = Ddp_core.Dispatch.create ~workers:4 ~sample:1 ~hot_set_size:4 in
  List.iteri
    (fun rank addr ->
      for _ = 1 to 100 - rank do
        Ddp_core.Dispatch.note_access d addr
      done)
    [ 0; 4; 8; 12 ];
  let moves = Ddp_core.Dispatch.rebalance d in
  Alcotest.(check bool) "moves happened" true (moves <> []);
  Alcotest.(check int) "one redistribution" 1 (Ddp_core.Dispatch.redistributions d);
  (* After redistribution the hot set is even: at most ceil(4/4)=1 each. *)
  let per_worker = Array.make 4 0 in
  List.iter
    (fun addr ->
      let w = Ddp_core.Dispatch.worker_of d addr in
      per_worker.(w) <- per_worker.(w) + 1)
    [ 0; 4; 8; 12 ];
  Array.iter (fun c -> Alcotest.(check bool) "fair share" true (c <= 1)) per_worker;
  (* A second rebalance finds nothing to do. *)
  Alcotest.(check (list (triple int int int))) "stable" [] (Ddp_core.Dispatch.rebalance d)

let test_rebalance_noop_when_even () =
  let d = Ddp_core.Dispatch.create ~workers:4 ~sample:1 ~hot_set_size:4 in
  List.iter (fun addr -> for _ = 1 to 50 do Ddp_core.Dispatch.note_access d addr done) [ 0; 1; 2; 3 ];
  Alcotest.(check (list (triple int int int))) "already balanced" [] (Ddp_core.Dispatch.rebalance d);
  Alcotest.(check int) "no redistribution" 0 (Ddp_core.Dispatch.redistributions d)

let test_override_priority () =
  let d = Ddp_core.Dispatch.create ~workers:4 ~sample:1 ~hot_set_size:1 in
  for _ = 1 to 10 do Ddp_core.Dispatch.note_access d 8 done;
  (* addr 8 -> worker 0 by modulo; hot set of size 1 assigns it to worker
     0 round-robin anyway, so force skew with two addresses. *)
  let d2 = Ddp_core.Dispatch.create ~workers:2 ~sample:1 ~hot_set_size:2 in
  for _ = 1 to 10 do Ddp_core.Dispatch.note_access d2 0 done;
  for _ = 1 to 9 do Ddp_core.Dispatch.note_access d2 2 done;
  let moves = Ddp_core.Dispatch.rebalance d2 in
  List.iter
    (fun (addr, _old, new_w) ->
      Alcotest.(check int) "override respected" new_w (Ddp_core.Dispatch.worker_of d2 addr))
    moves;
  Alcotest.(check bool) "override count" true (Ddp_core.Dispatch.override_count d2 = List.length moves)

(* Property: worker_of is always within range, override or not. *)
let prop_worker_in_range =
  QCheck.Test.make ~name:"worker_of in [0, W)" ~count:300
    QCheck.(pair (int_range 1 16) (list (int_range 0 10_000)))
    (fun (workers, addrs) ->
      let d = Ddp_core.Dispatch.create ~workers ~sample:1 ~hot_set_size:5 in
      List.iter (fun a -> Ddp_core.Dispatch.note_access d a) addrs;
      ignore (Ddp_core.Dispatch.rebalance d);
      List.for_all
        (fun a ->
          let w = Ddp_core.Dispatch.worker_of d a in
          w >= 0 && w < workers)
        addrs)

(* Property: redistribution leaves every address owned by exactly one
   worker (single-ownership is what keeps dependence types correct). *)
let prop_single_ownership_stable =
  QCheck.Test.make ~name:"ownership is a function of address" ~count:200
    QCheck.(list (int_range 0 100))
    (fun addrs ->
      let d = Ddp_core.Dispatch.create ~workers:4 ~sample:1 ~hot_set_size:3 in
      List.iter (fun a -> Ddp_core.Dispatch.note_access d a) addrs;
      ignore (Ddp_core.Dispatch.rebalance d);
      List.for_all
        (fun a -> Ddp_core.Dispatch.worker_of d a = Ddp_core.Dispatch.worker_of d a)
        addrs)

(* Property: a forced rotation (the fault-injection entry point) keeps
   unique ownership — every address still maps to exactly one in-range
   worker, every reported move is honored by the subsequent lookup, and
   untouched addresses keep their modulo owner. *)
let prop_force_rebalance_ownership =
  QCheck.Test.make ~name:"force_rebalance keeps unique, honored ownership" ~count:200
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 200)))
    (fun (workers, addrs) ->
      let d = Ddp_core.Dispatch.create ~workers ~sample:1 ~hot_set_size:4 in
      List.iter (fun a -> Ddp_core.Dispatch.note_access d a) addrs;
      let moves = Ddp_core.Dispatch.force_rebalance d in
      let moved = List.map (fun (a, _, _) -> a) moves in
      List.for_all
        (fun (addr, old_w, new_w) ->
          Ddp_core.Dispatch.worker_of d addr = new_w
          && new_w >= 0 && new_w < workers && old_w <> new_w)
        moves
      && List.for_all
           (fun a ->
             let w = Ddp_core.Dispatch.worker_of d a in
             w >= 0 && w < workers
             && (List.mem a moved
                || Ddp_core.Dispatch.override_count d = 0 || w = a mod workers
                || List.mem a (Ddp_core.Dispatch.hot_addresses d)))
           addrs)

(* Forced redistribution end-to-end: migrating signature slots must move
   each hot address's recorded state to its new owner and leave the old
   owner's slot empty — the drain-barrier + migrate path the parallel
   profiler runs under fault injection. *)
let test_force_rebalance_migration_agrees () =
  let workers = 3 in
  let slots = 1 lsl 12 in
  let d = Ddp_core.Dispatch.create ~workers ~sample:1 ~hot_set_size:4 in
  let stores = Array.init workers (fun _ -> Ddp_core.Sig_store.create ~slots ()) in
  let addrs = [ 0; 3; 6; 9 ] in
  (* seed per-owner signature state, then heat the addresses *)
  List.iteri
    (fun i addr ->
      let w = Ddp_core.Dispatch.worker_of d addr in
      let c = Ddp_core.Sig_store.cell stores.(w) ~addr in
      Ddp_core.Sig_store.set_write stores.(w) c ~payload:(1000 + i) ~time:(50 + i);
      Ddp_core.Sig_store.set_read stores.(w) c ~payload:(2000 + i) ~time:(60 + i);
      for _ = 1 to 10 - i do
        Ddp_core.Dispatch.note_access d addr
      done)
    addrs;
  let moves = Ddp_core.Dispatch.force_rebalance d in
  Alcotest.(check bool) "forced rotation moved something" true (moves <> []);
  List.iter
    (fun (addr, from_w, to_w) ->
      Ddp_core.Sig_store.migrate ~src:stores.(from_w) ~dst:stores.(to_w) ~addr)
    moves;
  (* after migration: both directions live exactly at the current owner *)
  let cell_of store addr =
    let c = Ddp_core.Sig_store.cell store ~addr in
    Array.sub (Ddp_core.Sig_store.lanes store) c 4 |> Array.to_list
  in
  List.iteri
    (fun i addr ->
      let owner = Ddp_core.Dispatch.worker_of d addr in
      Alcotest.(check (list int))
        (Printf.sprintf "addr %d state at owner" addr)
        [ 1000 + i; 50 + i; 2000 + i; 60 + i ]
        (cell_of stores.(owner) addr);
      Array.iteri
        (fun w store ->
          if w <> owner then
            Alcotest.(check (list int))
              (Printf.sprintf "addr %d absent from worker %d" addr w)
              [ 0; 0; 0; 0 ] (cell_of store addr))
        stores)
    addrs

let suite =
  [
    Alcotest.test_case "modulo rule" `Quick test_modulo_rule;
    Alcotest.test_case "stats sampling" `Quick test_stats_sampling;
    Alcotest.test_case "hot addresses ranked" `Quick test_hot_addresses_ranked;
    Alcotest.test_case "rebalance moves skewed hot set" `Quick test_rebalance_moves_skewed_hot_set;
    Alcotest.test_case "rebalance noop when even" `Quick test_rebalance_noop_when_even;
    Alcotest.test_case "override priority" `Quick test_override_priority;
    Alcotest.test_case "forced rebalance + slot migration" `Quick
      test_force_rebalance_migration_agrees;
    Test_seed.to_alcotest prop_worker_in_range;
    Test_seed.to_alcotest prop_single_ownership_stable;
    Test_seed.to_alcotest prop_force_rebalance_ownership;
  ]
