(* Tests for Algorithm 1: the dependence-detection kernel, including a
   qcheck comparison against a brute-force oracle on random traces. *)

module Dep = Ddp_core.Dep
module Dep_store = Ddp_core.Dep_store

let payload line =
  Ddp_core.Payload.pack ~loc:(Ddp_minir.Loc.make ~file:1 ~line) ~var:1 ~thread:0

let mk_perfect ?(track_init = true) ?(war_requires_prior_write = false) () =
  let deps = Dep_store.create () in
  let algo =
    Ddp_core.Algo.Over_perfect.create ~track_init ~war_requires_prior_write
      ~store:(Ddp_core.Perfect_sig.create ())
      ~deps ()
  in
  (algo, deps)

let key kind ~sink_line ~src_line =
  { Dep.kind; sink = payload sink_line; src = (if src_line = 0 then 0 else payload src_line); race = false }

let test_raw () =
  let algo, deps = mk_perfect () in
  Ddp_core.Algo.Over_perfect.on_write algo ~addr:1 ~payload:(payload 10) ~time:0;
  Ddp_core.Algo.Over_perfect.on_read algo ~addr:1 ~payload:(payload 20) ~time:1;
  Alcotest.(check bool) "RAW built" true
    (Dep_store.mem deps (key Dep.RAW ~sink_line:20 ~src_line:10));
  Alcotest.(check bool) "INIT built" true (Dep_store.mem deps (key Dep.INIT ~sink_line:10 ~src_line:0))

let test_war_without_prior_write () =
  (* read then write, no earlier write: prose behaviour builds the WAR. *)
  let algo, deps = mk_perfect () in
  Ddp_core.Algo.Over_perfect.on_read algo ~addr:1 ~payload:(payload 10) ~time:0;
  Ddp_core.Algo.Over_perfect.on_write algo ~addr:1 ~payload:(payload 20) ~time:1;
  Alcotest.(check bool) "WAR built" true
    (Dep_store.mem deps (key Dep.WAR ~sink_line:20 ~src_line:10))

let test_war_literal_pseudocode () =
  (* Under the literal Algorithm 1, the same sequence builds no WAR. *)
  let algo, deps = mk_perfect ~war_requires_prior_write:true () in
  Ddp_core.Algo.Over_perfect.on_read algo ~addr:1 ~payload:(payload 10) ~time:0;
  Ddp_core.Algo.Over_perfect.on_write algo ~addr:1 ~payload:(payload 20) ~time:1;
  Alcotest.(check bool) "no WAR" false
    (Dep_store.mem deps (key Dep.WAR ~sink_line:20 ~src_line:10));
  (* ...but after a write it does. *)
  Ddp_core.Algo.Over_perfect.on_read algo ~addr:1 ~payload:(payload 30) ~time:2;
  Ddp_core.Algo.Over_perfect.on_write algo ~addr:1 ~payload:(payload 40) ~time:3;
  Alcotest.(check bool) "WAR after prior write" true
    (Dep_store.mem deps (key Dep.WAR ~sink_line:40 ~src_line:30))

let test_waw () =
  let algo, deps = mk_perfect () in
  Ddp_core.Algo.Over_perfect.on_write algo ~addr:1 ~payload:(payload 10) ~time:0;
  Ddp_core.Algo.Over_perfect.on_write algo ~addr:1 ~payload:(payload 20) ~time:1;
  Alcotest.(check bool) "WAW built" true
    (Dep_store.mem deps (key Dep.WAW ~sink_line:20 ~src_line:10))

let test_rar_ignored () =
  let algo, deps = mk_perfect () in
  Ddp_core.Algo.Over_perfect.on_read algo ~addr:1 ~payload:(payload 10) ~time:0;
  Ddp_core.Algo.Over_perfect.on_read algo ~addr:1 ~payload:(payload 20) ~time:1;
  Alcotest.(check int) "no dependences" 0 (Dep_store.distinct deps)

let test_init_once_per_address () =
  let algo, deps = mk_perfect () in
  Ddp_core.Algo.Over_perfect.on_write algo ~addr:1 ~payload:(payload 10) ~time:0;
  Ddp_core.Algo.Over_perfect.on_write algo ~addr:2 ~payload:(payload 10) ~time:1;
  Alcotest.(check int) "INIT merged across addresses" 2
    (Dep_store.count deps (key Dep.INIT ~sink_line:10 ~src_line:0))

let test_track_init_off () =
  let algo, deps = mk_perfect ~track_init:false () in
  Ddp_core.Algo.Over_perfect.on_write algo ~addr:1 ~payload:(payload 10) ~time:0;
  Alcotest.(check int) "nothing recorded" 0 (Dep_store.distinct deps)

let test_free_breaks_history () =
  let algo, deps = mk_perfect () in
  Ddp_core.Algo.Over_perfect.on_write algo ~addr:1 ~payload:(payload 10) ~time:0;
  Ddp_core.Algo.Over_perfect.on_free algo ~addr:1;
  Ddp_core.Algo.Over_perfect.on_read algo ~addr:1 ~payload:(payload 20) ~time:1;
  Alcotest.(check bool) "no RAW across free" false
    (Dep_store.mem deps (key Dep.RAW ~sink_line:20 ~src_line:10))

let test_dep_observer_called () =
  let algo, _ = mk_perfect () in
  let seen = ref [] in
  Ddp_core.Algo.Over_perfect.set_observer algo (fun kind ~sink:_ ~src:_ ~src_time ~sink_time ->
      seen := (kind, src_time, sink_time) :: !seen);
  Ddp_core.Algo.Over_perfect.on_write algo ~addr:1 ~payload:(payload 10) ~time:3;
  Ddp_core.Algo.Over_perfect.on_read algo ~addr:1 ~payload:(payload 20) ~time:9;
  Alcotest.(check bool) "observer saw RAW with times" true
    (!seen = [ (Dep.RAW, 3, 9) ])

let test_race_flag_on_reversed_time () =
  let deps = Dep_store.create () in
  let algo =
    Ddp_core.Algo.Over_perfect.create ~check_timestamps:true
      ~store:(Ddp_core.Perfect_sig.create ())
      ~deps ()
  in
  (* Processing order says write@t=9 then read@t=2: reversed wall order. *)
  Ddp_core.Algo.Over_perfect.on_write algo ~addr:1 ~payload:(payload 10) ~time:9;
  Ddp_core.Algo.Over_perfect.on_read algo ~addr:1 ~payload:(payload 20) ~time:2;
  let flagged = Dep_store.fold deps (fun d _ acc -> acc || d.Dep.race) false in
  Alcotest.(check bool) "race flagged" true flagged

(* -- brute-force oracle --------------------------------------------------
   For a trace of (is_write, addr, line) the oracle tracks, per address,
   the last write and last read payloads exactly, and produces the same
   dependences Algorithm 1 should. *)

let oracle trace =
  let last_w = Hashtbl.create 16 and last_r = Hashtbl.create 16 in
  let deps = ref [] in
  let add kind sink src = deps := { Dep.kind; sink; src; race = false } :: !deps in
  List.iter
    (fun (is_write, addr, line) ->
      let p = payload line in
      if is_write then begin
        (match Hashtbl.find_opt last_w addr with
        | None -> add Dep.INIT p 0
        | Some w -> add Dep.WAW p w);
        (match Hashtbl.find_opt last_r addr with None -> () | Some r -> add Dep.WAR p r);
        Hashtbl.replace last_w addr p
      end
      else begin
        (match Hashtbl.find_opt last_w addr with None -> () | Some w -> add Dep.RAW p w);
        Hashtbl.replace last_r addr p
      end)
    trace;
  List.fold_left (fun acc d -> Dep_store.Key_set.add d acc) Dep_store.Key_set.empty !deps

let trace_gen =
  QCheck.(
    list_of_size Gen.(int_range 1 200)
      (triple bool (int_range 0 12) (int_range 1 30)))

let prop_algo_matches_oracle =
  QCheck.Test.make ~name:"Algorithm 1 (perfect store) matches brute-force oracle" ~count:300
    trace_gen
    (fun trace ->
      let algo, deps = mk_perfect () in
      List.iteri
        (fun i (is_write, addr, line) ->
          if is_write then Ddp_core.Algo.Over_perfect.on_write algo ~addr ~payload:(payload line) ~time:i
          else Ddp_core.Algo.Over_perfect.on_read algo ~addr ~payload:(payload line) ~time:i)
        trace;
      Dep_store.Key_set.equal (Dep_store.key_set deps) (oracle trace))

let prop_signature_matches_perfect_when_big =
  QCheck.Test.make ~name:"signature == perfect when collision-free" ~count:200 trace_gen
    (fun trace ->
      let algo_p, deps_p = mk_perfect () in
      let deps_s = Dep_store.create () in
      (* 13 distinct addresses, 1<<16 slots: collisions essentially
         impossible for addresses 0..12 under multiplicative hashing. *)
      let store = Ddp_core.Sig_store.create ~slots:65536 () in
      let algo_s = Ddp_core.Algo.Over_signature.create ~store ~deps:deps_s () in
      List.iteri
        (fun i (is_write, addr, line) ->
          let p = payload line in
          if is_write then begin
            Ddp_core.Algo.Over_perfect.on_write algo_p ~addr ~payload:p ~time:i;
            Ddp_core.Algo.Over_signature.on_write algo_s ~addr ~payload:p ~time:i
          end
          else begin
            Ddp_core.Algo.Over_perfect.on_read algo_p ~addr ~payload:p ~time:i;
            Ddp_core.Algo.Over_signature.on_read algo_s ~addr ~payload:p ~time:i
          end)
        trace;
      Dep_store.Key_set.equal (Dep_store.key_set deps_p) (Dep_store.key_set deps_s))

let suite =
  [
    Alcotest.test_case "RAW + INIT" `Quick test_raw;
    Alcotest.test_case "WAR without prior write (prose)" `Quick test_war_without_prior_write;
    Alcotest.test_case "WAR literal pseudocode" `Quick test_war_literal_pseudocode;
    Alcotest.test_case "WAW" `Quick test_waw;
    Alcotest.test_case "RAR ignored" `Quick test_rar_ignored;
    Alcotest.test_case "INIT merged" `Quick test_init_once_per_address;
    Alcotest.test_case "track_init off" `Quick test_track_init_off;
    Alcotest.test_case "free breaks history" `Quick test_free_breaks_history;
    Alcotest.test_case "dep observer" `Quick test_dep_observer_called;
    Alcotest.test_case "race flag on reversed time" `Quick test_race_flag_on_reversed_time;
    Test_seed.to_alcotest prop_algo_matches_oracle;
    Test_seed.to_alcotest prop_signature_matches_perfect_when_big;
  ]
