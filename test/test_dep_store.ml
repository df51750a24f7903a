(* Tests for merged dependence storage. *)

module Dep = Ddp_core.Dep
module Dep_store = Ddp_core.Dep_store

let payload line =
  Ddp_core.Payload.pack ~loc:(Ddp_minir.Loc.make ~file:1 ~line) ~var:0 ~thread:0

let test_merging () =
  let s = Dep_store.create () in
  for _ = 1 to 100 do
    Dep_store.add s ~kind:Dep.RAW ~sink:(payload 2) ~src:(payload 1) ~race:false
  done;
  Alcotest.(check int) "one distinct" 1 (Dep_store.distinct s);
  Alcotest.(check int) "100 occurrences" 100 (Dep_store.total_occurrences s);
  Alcotest.(check (float 1e-9)) "merge factor" 100.0 (Dep_store.merge_factor s)

let test_distinct_keys () =
  let s = Dep_store.create () in
  Dep_store.add s ~kind:Dep.RAW ~sink:(payload 2) ~src:(payload 1) ~race:false;
  Dep_store.add s ~kind:Dep.WAR ~sink:(payload 2) ~src:(payload 1) ~race:false;
  Dep_store.add s ~kind:Dep.RAW ~sink:(payload 3) ~src:(payload 1) ~race:false;
  Dep_store.add s ~kind:Dep.RAW ~sink:(payload 2) ~src:(payload 1) ~race:true;
  Alcotest.(check int) "four distinct" 4 (Dep_store.distinct s)

let test_merge_into () =
  let a = Dep_store.create () and b = Dep_store.create () in
  Dep_store.add a ~kind:Dep.RAW ~sink:(payload 2) ~src:(payload 1) ~race:false;
  Dep_store.add a ~kind:Dep.RAW ~sink:(payload 2) ~src:(payload 1) ~race:false;
  Dep_store.add b ~kind:Dep.RAW ~sink:(payload 2) ~src:(payload 1) ~race:false;
  Dep_store.add b ~kind:Dep.WAW ~sink:(payload 4) ~src:(payload 3) ~race:false;
  Dep_store.merge_into ~src:a ~dst:b;
  Alcotest.(check int) "distinct union" 2 (Dep_store.distinct b);
  Alcotest.(check int) "counts sum" 3
    (Dep_store.count b { Dep.kind = Dep.RAW; sink = payload 2; src = payload 1; race = false })

let test_key_set_no_race () =
  let s = Dep_store.create () in
  Dep_store.add s ~kind:Dep.RAW ~sink:(payload 2) ~src:(payload 1) ~race:true;
  Dep_store.add s ~kind:Dep.RAW ~sink:(payload 2) ~src:(payload 1) ~race:false;
  Alcotest.(check int) "race variants collapse" 1
    (Dep_store.Key_set.cardinal (Dep_store.key_set_no_race s));
  Alcotest.(check int) "race variants distinct" 2
    (Dep_store.Key_set.cardinal (Dep_store.key_set s))

(* Far more distinct keys than the initial table holds: every growth
   and rehash must keep each key's count, the occurrence total, and what
   merge_into carries into a second store. *)
let test_growth_keeps_counts () =
  let n = 20_000 in
  let key i =
    {
      Dep.kind = (match i mod 3 with 0 -> Dep.RAW | 1 -> Dep.WAR | _ -> Dep.WAW);
      sink = payload (1 + (i / 200));
      src = payload (1 + (i mod 200));
      race = i mod 2 = 0;
    }
  in
  let occurrences i = 1 + (i mod 5) in
  let a = Dep_store.create () in
  for i = 0 to n - 1 do
    let k = key i in
    for _ = 1 to occurrences i do
      Dep_store.add a ~kind:k.kind ~sink:k.sink ~src:k.src ~race:k.race
    done
  done;
  let expected_total = ref 0 in
  for i = 0 to n - 1 do
    expected_total := !expected_total + occurrences i
  done;
  Alcotest.(check int) "distinct" n (Dep_store.distinct a);
  Alcotest.(check int) "total" !expected_total (Dep_store.total_occurrences a);
  let wrong = ref 0 in
  for i = 0 to n - 1 do
    if Dep_store.count a (key i) <> occurrences i then incr wrong
  done;
  Alcotest.(check int) "counts after growth" 0 !wrong;
  Alcotest.(check int) "fold sees every key once" n
    (Dep_store.fold a (fun _ _ acc -> acc + 1) 0);
  (* dst holds the odd keys once: merging a adds a's counts on top *)
  let b = Dep_store.create () in
  for i = 0 to n - 1 do
    if i mod 2 = 1 then Dep_store.add_key b (key i) ~occurrences:1
  done;
  Dep_store.merge_into ~src:a ~dst:b;
  Alcotest.(check int) "merged distinct" n (Dep_store.distinct b);
  Alcotest.(check int) "merged total" (!expected_total + (n / 2)) (Dep_store.total_occurrences b);
  let wrong = ref 0 in
  for i = 0 to n - 1 do
    if Dep_store.count b (key i) <> occurrences i + (i mod 2) then incr wrong
  done;
  Alcotest.(check int) "merged counts" 0 !wrong;
  Alcotest.(check bool) "absent key" false
    (Dep_store.mem b { Dep.kind = Dep.RAW; sink = payload 999; src = payload 999; race = false })

let test_dep_accessors () =
  let d =
    {
      Dep.kind = Dep.RAW;
      sink = Ddp_core.Payload.pack ~loc:(Ddp_minir.Loc.make ~file:4 ~line:58) ~var:7 ~thread:2;
      src = Ddp_core.Payload.pack ~loc:(Ddp_minir.Loc.make ~file:4 ~line:77) ~var:7 ~thread:3;
      race = false;
    }
  in
  Alcotest.(check int) "sink thread" 2 (Dep.sink_thread d);
  Alcotest.(check int) "src thread" 3 (Dep.src_thread d);
  Alcotest.(check bool) "cross thread" true (Dep.is_cross_thread d);
  Alcotest.(check int) "var" 7 (Dep.var d);
  Alcotest.(check string) "MT format" "{RAW 4:77|3|x}"
    (Dep.to_string ~show_threads:true ~var_name:(fun _ -> "x") d);
  Alcotest.(check string) "seq format" "{RAW 4:77|x}"
    (Dep.to_string ~var_name:(fun _ -> "x") d)

let test_init_format () =
  let d = { Dep.kind = Dep.INIT; sink = payload 5; src = 0; race = false } in
  Alcotest.(check string) "INIT star" "{INIT *}" (Dep.to_string ~var_name:(fun _ -> "x") d);
  Alcotest.(check bool) "src loc none" true (Ddp_minir.Loc.is_none (Dep.src_loc d))

let test_race_format () =
  let d = { Dep.kind = Dep.WAW; sink = payload 5; src = payload 3; race = true } in
  Alcotest.(check string) "race marker" "{WAW? 1:3|x}" (Dep.to_string ~var_name:(fun _ -> "x") d)

(* Property: merge_into never loses occurrences. *)
let prop_merge_preserves_counts =
  QCheck.Test.make ~name:"merge preserves total occurrences" ~count:200
    QCheck.(pair (list (pair (int_range 1 5) (int_range 1 5))) (list (pair (int_range 1 5) (int_range 1 5))))
    (fun (la, lb) ->
      let mk l =
        let s = Dep_store.create () in
        List.iter
          (fun (sink, src) ->
            Dep_store.add s ~kind:Dep.RAW ~sink:(payload sink) ~src:(payload src) ~race:false)
          l;
        s
      in
      let a = mk la and b = mk lb in
      let total = Dep_store.total_occurrences a + Dep_store.total_occurrences b in
      Dep_store.merge_into ~src:a ~dst:b;
      Dep_store.total_occurrences b = total)

let suite =
  [
    Alcotest.test_case "merging" `Quick test_merging;
    Alcotest.test_case "distinct keys" `Quick test_distinct_keys;
    Alcotest.test_case "merge_into" `Quick test_merge_into;
    Alcotest.test_case "key_set no race" `Quick test_key_set_no_race;
    Alcotest.test_case "table growth keeps counts" `Quick test_growth_keeps_counts;
    Alcotest.test_case "dep accessors + formats" `Quick test_dep_accessors;
    Alcotest.test_case "INIT format" `Quick test_init_format;
    Alcotest.test_case "race format" `Quick test_race_format;
    Test_seed.to_alcotest prop_merge_preserves_counts;
  ]
