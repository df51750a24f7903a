(* Tests for the Fig.-1 / Fig.-3 style report renderer. *)

module B = Ddp_minir.Builder

let outcome_of prog = Ddp_core.Profiler.profile ~mode:"serial" prog

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let check_contains msg needle haystack =
  if not (contains ~needle haystack) then
    Alcotest.failf "%s: expected to find %S in:\n%s" msg needle haystack

let test_sequential_format () =
  let prog =
    B.program ~name:"r"
      [
        B.local "temp" (B.f 0.0);
        B.for_ "i" (B.i 0) (B.i 5) (fun iv ->
            [ B.assign "temp" B.(v "temp" +: call "float" [ iv ]) ]);
      ]
  in
  let o = outcome_of prog in
  let s = Ddp_core.Profiler.report o in
  check_contains "loop begin" "1:2 BGN loop" s;
  check_contains "loop end with iterations" "1:4 END loop 5" s;
  check_contains "INIT marker" "{INIT *}" s;
  check_contains "header self RAW on i" "{RAW 1:2|i}" s;
  check_contains "carried RAW on temp" "{RAW 1:3|temp}" s;
  check_contains "NOM lines" " NOM " s

let test_thread_format () =
  let prog =
    B.program ~name:"r"
      [
        B.local "x" (B.i 0);
        B.par [ [ B.assign "x" (B.i 1) ]; [ B.assign "x" (B.i 2) ] ];
      ]
  in
  let o = Ddp_core.Profiler.profile ~mode:"serial" ~mt:true prog in
  let s = Ddp_core.Profiler.report ~show_threads:true o in
  (* sinks look like "1:3|1", sources like "{WAW 1:1|0|x}" *)
  check_contains "sink with thread id" "|" s;
  let has_mt_source =
    contains ~needle:"|0|x}" s || contains ~needle:"|1|x}" s || contains ~needle:"|2|x}" s
  in
  Alcotest.(check bool) "source carries thread id" true has_mt_source

let test_kind_counts () =
  let prog =
    B.program ~name:"r"
      [
        B.arr "a" (B.i 4);
        B.store "a" (B.i 0) (B.i 1);
        B.local "x" (B.idx "a" (B.i 0));
        B.store "a" (B.i 0) (B.i 2);
      ]
  in
  let o = outcome_of prog in
  let raw, war, waw, init, races = Ddp_core.Report.kind_counts o.deps in
  Alcotest.(check bool) "raw > 0" true (raw > 0);
  Alcotest.(check bool) "war > 0" true (war > 0);
  Alcotest.(check bool) "waw > 0" true (waw > 0);
  Alcotest.(check bool) "init > 0" true (init > 0);
  Alcotest.(check int) "no races in sequential" 0 races

let test_report_lines_sorted () =
  let prog =
    B.program ~name:"r"
      [
        B.local "a" (B.i 1);
        B.local "b" (B.v "a");
        B.local "c" (B.v "b");
      ]
  in
  let o = outcome_of prog in
  let s = Ddp_core.Profiler.report o in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let sink_lines =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | loc :: _ when String.contains loc ':' -> (
          match String.split_on_char ':' loc with
          | [ _; n ] -> int_of_string_opt n
          | _ -> None)
        | _ -> None)
      lines
  in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "sinks in line order" true (non_decreasing sink_lines)

let test_long_group_wraps () =
  (* Many distinct sources into one sink line: the renderer wraps at 4
     deps per line with aligned continuations. *)
  let prog =
    B.program ~name:"r"
      [
        B.arr "a" (B.i 8);
        B.for_ "w" (B.i 0) (B.i 8) (fun iv -> [ B.store "a" iv (B.i 1) ]);
        B.local "s" (B.i 0);
        (* 8 reads at one line, each with a distinct... same source line
           actually; force distinct kinds instead *)
        B.for_ "r2" (B.i 0) (B.i 8) (fun iv -> [ B.assign "s" B.(v "s" +: idx "a" iv) ]);
      ]
  in
  let o = outcome_of prog in
  let s = Ddp_core.Profiler.report o in
  Alcotest.(check bool) "renders" true (String.length s > 0)

(* -- the renderer against its reference ----------------------------------- *)

let var_name v = "v" ^ string_of_int v

let check_same_as_reference ?health ~deps ~regions () =
  List.iter
    (fun show_threads ->
      Alcotest.(check string)
        (Printf.sprintf "show_threads=%b" show_threads)
        (Report_ref.render ~show_threads ?health ~var_name ~deps ~regions ())
        (Ddp_core.Report.render ~show_threads ?health ~var_name ~deps ~regions ()))
    [ false; true ]

(* Random programs of every generator shape, profiled by the serial, mt
   and dag engines: the report is byte-equal to the reference renderer's,
   with and without thread ids. *)
let prop_render_matches_reference (label, shape) =
  QCheck.Test.make ~name:("render == reference renderer (" ^ label ^ ")") ~count:40
    (Ddp_testkit.Prog_gen.arbitrary ~shape ())
    (fun prog ->
      List.iter
        (fun mode ->
          let o = Ddp_core.Profiler.profile ~mode prog in
          check_same_as_reference ~health:o.health ~deps:o.deps ~regions:o.regions ())
        [ "serial"; "mt"; "dag" ];
      true)

let pay ~line ~var ~thread =
  Ddp_core.Payload.pack ~loc:(Ddp_minir.Loc.make ~file:1 ~line) ~var ~thread

(* One sink with nine dependences (three wrapped lines), sinks sharing a
   line across variables and threads, race flags, INITs, and loops whose
   begin and end lines carry no dependence, two of them ending on the
   same line. *)
let test_wrapped_sink_matches_reference () =
  let deps = Ddp_core.Dep_store.create () in
  let sink = pay ~line:5 ~var:3 ~thread:2 in
  List.iteri
    (fun k kind ->
      Ddp_core.Dep_store.add deps ~kind ~sink
        ~src:(pay ~line:(10 - k) ~var:(k mod 2) ~thread:(k mod 3))
        ~race:(k mod 4 = 1))
    Ddp_core.Dep.[ RAW; RAW; WAR; WAW; RAW; WAR; WAW; RAW ];
  Ddp_core.Dep_store.add_init deps ~sink;
  Ddp_core.Dep_store.add_init deps ~sink:(pay ~line:5 ~var:1 ~thread:7);
  Ddp_core.Dep_store.add deps ~kind:Ddp_core.Dep.RAW ~sink:(pay ~line:5 ~var:1 ~thread:0)
    ~src:(pay ~line:2 ~var:1 ~thread:1) ~race:false;
  Ddp_core.Dep_store.add deps ~kind:Ddp_core.Dep.WAW ~sink:(pay ~line:12 ~var:4 ~thread:1023)
    ~src:(pay ~line:12 ~var:4 ~thread:0) ~race:true;
  let regions = Ddp_core.Region.create () in
  let loop ~line ~end_line ~iterations =
    let loc = Ddp_minir.Loc.make ~file:1 ~line in
    Ddp_core.Region.on_enter regions ~loc ~thread:0 ~time:0;
    Ddp_core.Region.on_exit regions ~loc ~end_loc:(Ddp_minir.Loc.make ~file:1 ~line:end_line)
      ~iterations ~thread:0
  in
  loop ~line:1 ~end_line:20 ~iterations:3;
  loop ~line:5 ~end_line:9 ~iterations:7;
  loop ~line:6 ~end_line:9 ~iterations:11;
  loop ~line:15 ~end_line:16 ~iterations:1;
  check_same_as_reference ~deps ~regions ();
  let s = Ddp_core.Report.render ~var_name ~deps ~regions () in
  check_contains "continuation aligned under the first dependence" "\n        {RAW? 1:9" s

let test_partial_banner_matches_reference () =
  let o = outcome_of (B.program ~name:"r" [ B.local "x" (B.i 1); B.assign "x" (B.i 2) ]) in
  let health =
    Ddp_core.Health.degraded
      ~reasons:[ Ddp_core.Health.Worker_crash; Ddp_core.Health.Deadline 1.5 ]
      ~faults:[ { worker = 3; exn_text = "Failure(\"boom\")"; backtrace = "" } ]
      { Ddp_core.Health.no_loss with dropped_chunks = 2; dropped_events = 77 }
  in
  check_same_as_reference ~health ~deps:o.deps ~regions:o.regions ();
  check_contains "banner" "# PARTIAL RESULT"
    (Ddp_core.Report.render ~health ~var_name ~deps:o.deps ~regions:o.regions ())

let suite =
  [
    Alcotest.test_case "sequential format" `Quick test_sequential_format;
    Alcotest.test_case "thread format" `Quick test_thread_format;
    Alcotest.test_case "kind counts" `Quick test_kind_counts;
    Alcotest.test_case "report lines sorted" `Quick test_report_lines_sorted;
    Alcotest.test_case "long group wraps" `Quick test_long_group_wraps;
    Alcotest.test_case "wrapped sink == reference" `Quick test_wrapped_sink_matches_reference;
    Alcotest.test_case "partial banner == reference" `Quick
      test_partial_banner_matches_reference;
  ]
  @ List.map
      (fun shape -> Test_seed.to_alcotest (prop_render_matches_reference shape))
      Ddp_testkit.Prog_gen.[ ("default", default_shape); ("par", par_shape); ("task", task_shape) ]
