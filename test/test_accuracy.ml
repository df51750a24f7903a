(* Tests for the accuracy comparator and the Eq. (2) FPR model. *)

module Dep = Ddp_core.Dep
module Dep_store = Ddp_core.Dep_store

let payload line =
  Ddp_core.Payload.pack ~loc:(Ddp_minir.Loc.make ~file:1 ~line) ~var:0 ~thread:0

let store_of lines =
  let s = Dep_store.create () in
  List.iter
    (fun (sink, src) -> Dep_store.add s ~kind:Dep.RAW ~sink:(payload sink) ~src:(payload src) ~race:false)
    lines;
  s

let test_identical_sets () =
  let a = store_of [ (2, 1); (3, 1) ] and b = store_of [ (2, 1); (3, 1) ] in
  let acc = Ddp_core.Accuracy.compare_stores ~profiled:a ~perfect:b in
  Alcotest.(check (float 1e-9)) "fpr" 0.0 acc.fpr;
  Alcotest.(check (float 1e-9)) "fnr" 0.0 acc.fnr

let test_false_positive () =
  let profiled = store_of [ (2, 1); (9, 8) ] and perfect = store_of [ (2, 1) ] in
  let acc = Ddp_core.Accuracy.compare_stores ~profiled ~perfect in
  Alcotest.(check int) "fp" 1 acc.false_positives;
  Alcotest.(check int) "fn" 0 acc.false_negatives;
  Alcotest.(check (float 1e-9)) "fpr = 1/2" 0.5 acc.fpr

let test_false_negative () =
  let profiled = store_of [ (2, 1) ] and perfect = store_of [ (2, 1); (9, 8) ] in
  let acc = Ddp_core.Accuracy.compare_stores ~profiled ~perfect in
  Alcotest.(check int) "fn" 1 acc.false_negatives;
  Alcotest.(check (float 1e-9)) "fnr = 1/2" 0.5 acc.fnr

let test_wrong_source_counts_both_ways () =
  (* A collision replaces the true source line: one FP and one FN. *)
  let profiled = store_of [ (5, 3) ] and perfect = store_of [ (5, 4) ] in
  let acc = Ddp_core.Accuracy.compare_stores ~profiled ~perfect in
  Alcotest.(check int) "fp" 1 acc.false_positives;
  Alcotest.(check int) "fn" 1 acc.false_negatives

let test_empty_sets () =
  let acc = Ddp_core.Accuracy.compare_stores ~profiled:(store_of []) ~perfect:(store_of []) in
  Alcotest.(check (float 1e-9)) "fpr 0 on empty" 0.0 acc.fpr;
  Alcotest.(check (float 1e-9)) "fnr 0 on empty" 0.0 acc.fnr

(* -- Eq. (2) -------------------------------------------------------------- *)

let test_fpr_model_values () =
  (* 1 - (1 - 1/m)^n with m = 2, n = 1 -> 0.5 *)
  Alcotest.(check (float 1e-9)) "m=2 n=1" 0.5 (Ddp_core.Fpr_model.p_fp ~slots:2 ~addresses:1);
  Alcotest.(check (float 1e-9)) "n=0" 0.0 (Ddp_core.Fpr_model.p_fp ~slots:10 ~addresses:0);
  Alcotest.(check bool) "saturates" true (Ddp_core.Fpr_model.p_fp ~slots:10 ~addresses:10_000 > 0.999)

let test_fpr_model_errors () =
  Alcotest.check_raises "bad slots" (Invalid_argument "Fpr_model.p_fp: slots must be positive")
    (fun () -> ignore (Ddp_core.Fpr_model.p_fp ~slots:0 ~addresses:1))

let test_slots_for_inverts () =
  let addresses = 100_000 in
  List.iter
    (fun target ->
      let m = Ddp_core.Fpr_model.slots_for ~addresses ~target in
      Alcotest.(check bool) "achieves target" true
        (Ddp_core.Fpr_model.p_fp ~slots:m ~addresses <= target +. 1e-9);
      (* minimality: one less bucket class misses the target (allow slack) *)
      Alcotest.(check bool) "not absurdly large" true
        (Ddp_core.Fpr_model.p_fp ~slots:(m / 2) ~addresses > target))
    [ 0.5; 0.1; 0.01 ]

let prop_fpr_monotonic_in_slots =
  QCheck.Test.make ~name:"P_fp decreasing in slots" ~count:200
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 1_000_000))
    (fun (slots, addresses) ->
      Ddp_core.Fpr_model.p_fp ~slots ~addresses
      >= Ddp_core.Fpr_model.p_fp ~slots:(2 * slots) ~addresses -. 1e-12)

let prop_fpr_monotonic_in_addresses =
  QCheck.Test.make ~name:"P_fp increasing in addresses" ~count:200
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 500_000))
    (fun (slots, addresses) ->
      Ddp_core.Fpr_model.p_fp ~slots ~addresses
      <= Ddp_core.Fpr_model.p_fp ~slots ~addresses:(addresses + 1) +. 1e-12)

(* Measured slot occupancy should track the model's expectation: insert n
   random addresses into an m-slot signature and compare. *)
let test_expected_occupancy_matches () =
  let slots = 4096 and n = 3000 in
  let s = Ddp_core.Sig_store.create ~slots () in
  let rng = Ddp_util.Rng.create 5 in
  for i = 0 to n - 1 do
    let c = Ddp_core.Sig_store.cell s ~addr:(Ddp_util.Rng.bits rng) in
    Ddp_core.Sig_store.set_write s c ~payload:(payload 1) ~time:i
  done;
  let expected = Ddp_core.Fpr_model.expected_occupancy ~slots ~addresses:n in
  let measured = float_of_int (Ddp_core.Sig_store.occupied s) in
  let rel_err = Float.abs (measured -. expected) /. expected in
  Alcotest.(check bool)
    (Printf.sprintf "occupancy within 5%% (expected %.0f, measured %.0f)" expected measured)
    true (rel_err < 0.05)

let suite =
  [
    Alcotest.test_case "identical sets" `Quick test_identical_sets;
    Alcotest.test_case "false positive" `Quick test_false_positive;
    Alcotest.test_case "false negative" `Quick test_false_negative;
    Alcotest.test_case "wrong source counts both ways" `Quick test_wrong_source_counts_both_ways;
    Alcotest.test_case "empty sets" `Quick test_empty_sets;
    Alcotest.test_case "fpr model values" `Quick test_fpr_model_values;
    Alcotest.test_case "fpr model errors" `Quick test_fpr_model_errors;
    Alcotest.test_case "slots_for inverts" `Quick test_slots_for_inverts;
    Alcotest.test_case "expected occupancy matches" `Quick test_expected_occupancy_matches;
    Test_seed.to_alcotest prop_fpr_monotonic_in_slots;
    Test_seed.to_alcotest prop_fpr_monotonic_in_addresses;
  ]
