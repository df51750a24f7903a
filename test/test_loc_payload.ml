(* Tests for packed locations and signature payloads. *)

let test_loc_roundtrip () =
  let loc = Ddp_minir.Loc.make ~file:3 ~line:4242 in
  Alcotest.(check int) "file" 3 (Ddp_minir.Loc.file loc);
  Alcotest.(check int) "line" 4242 (Ddp_minir.Loc.line loc);
  Alcotest.(check string) "string" "3:4242" (Ddp_minir.Loc.to_string loc)

let test_loc_none () =
  Alcotest.(check bool) "none" true (Ddp_minir.Loc.is_none Ddp_minir.Loc.none);
  Alcotest.(check string) "star" "*" (Ddp_minir.Loc.to_string Ddp_minir.Loc.none)

let test_loc_ranges () =
  Alcotest.check_raises "line 0" (Invalid_argument "Loc.make: line out of range") (fun () ->
      ignore (Ddp_minir.Loc.make ~file:1 ~line:0));
  Alcotest.check_raises "file too big" (Invalid_argument "Loc.make: file id out of range")
    (fun () -> ignore (Ddp_minir.Loc.make ~file:256 ~line:1))

let test_loc_order () =
  let a = Ddp_minir.Loc.make ~file:1 ~line:60 in
  let b = Ddp_minir.Loc.make ~file:1 ~line:74 in
  let c = Ddp_minir.Loc.make ~file:2 ~line:1 in
  Alcotest.(check bool) "same file by line" true (Ddp_minir.Loc.compare a b < 0);
  Alcotest.(check bool) "file dominates" true (Ddp_minir.Loc.compare b c < 0)

let test_payload_roundtrip () =
  let loc = Ddp_minir.Loc.make ~file:2 ~line:123 in
  let p = Ddp_core.Payload.pack ~loc ~var:77 ~thread:5 in
  Alcotest.(check int) "loc" loc (Ddp_core.Payload.loc p);
  Alcotest.(check int) "var" 77 (Ddp_core.Payload.var p);
  Alcotest.(check int) "thread" 5 (Ddp_core.Payload.thread p);
  Alcotest.(check bool) "never empty" false (Ddp_core.Payload.is_empty p)

let test_payload_ranges () =
  let loc = Ddp_minir.Loc.make ~file:1 ~line:1 in
  Alcotest.check_raises "var range" (Invalid_argument "Payload.pack: var out of range")
    (fun () -> ignore (Ddp_core.Payload.pack ~loc ~var:(1 lsl 20) ~thread:0));
  Alcotest.check_raises "thread range" (Invalid_argument "Payload.pack: thread out of range")
    (fun () -> ignore (Ddp_core.Payload.pack ~loc ~var:0 ~thread:1024))

let test_thread_capacity () =
  Alcotest.(check int) "one thread capacity" Ddp_minir.Loc.max_thread
    Ddp_core.Payload.max_thread

(* Property: pack/unpack is the identity over the whole domain. *)
let prop_payload_roundtrip =
  QCheck.Test.make ~name:"payload pack/unpack identity" ~count:1000
    QCheck.(triple (pair (int_range 0 255) (int_range 1 65535)) (int_range 0 ((1 lsl 20) - 1))
        (int_range 0 1023))
    (fun ((file, line), var, thread) ->
      let loc = Ddp_minir.Loc.make ~file ~line in
      let p = Ddp_core.Payload.pack ~loc ~var ~thread in
      Ddp_core.Payload.loc p = loc
      && Ddp_core.Payload.var p = var
      && Ddp_core.Payload.thread p = thread
      && not (Ddp_core.Payload.is_empty p))

let suite =
  [
    Alcotest.test_case "loc roundtrip" `Quick test_loc_roundtrip;
    Alcotest.test_case "loc none" `Quick test_loc_none;
    Alcotest.test_case "loc ranges" `Quick test_loc_ranges;
    Alcotest.test_case "loc order" `Quick test_loc_order;
    Alcotest.test_case "payload roundtrip" `Quick test_payload_roundtrip;
    Alcotest.test_case "payload ranges" `Quick test_payload_ranges;
    Alcotest.test_case "thread capacity" `Quick test_thread_capacity;
    Test_seed.to_alcotest prop_payload_roundtrip;
  ]
