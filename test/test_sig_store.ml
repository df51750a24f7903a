(* Tests for the signature store and the perfect signature. *)

module Sig_store = Ddp_core.Sig_store
module Perfect_sig = Ddp_core.Perfect_sig

let mk_payload line =
  Ddp_core.Payload.pack ~loc:(Ddp_minir.Loc.make ~file:1 ~line) ~var:0 ~thread:0

(* Lane [k] of an address's cell: 0/1 = write payload/time, 2/3 = read. *)
let lane s addr k =
  let c = Sig_store.cell s ~addr in
  (Sig_store.lanes s).(c + k)
let probe s ~addr = lane s addr 0
let probe_time s ~addr = lane s addr 1
let set s ~addr ~payload ~time = Sig_store.set_write s (Sig_store.cell s ~addr) ~payload ~time

let test_empty_probe () =
  let s = Sig_store.create ~slots:64 () in
  Alcotest.(check int) "empty" 0 (probe s ~addr:123);
  Alcotest.(check int) "empty read" 0 (lane s 123 2)

let test_set_probe () =
  let s = Sig_store.create ~slots:64 () in
  let p = mk_payload 5 in
  set s ~addr:42 ~payload:p ~time:7;
  Alcotest.(check int) "payload" p (probe s ~addr:42);
  Alcotest.(check int) "time" 7 (probe_time s ~addr:42);
  Alcotest.(check int) "occupied" 1 (Sig_store.occupied s)

let test_overwrite_same_addr () =
  let s = Sig_store.create ~slots:64 () in
  set s ~addr:1 ~payload:(mk_payload 1) ~time:1;
  set s ~addr:1 ~payload:(mk_payload 2) ~time:2;
  Alcotest.(check int) "latest wins" (mk_payload 2) (probe s ~addr:1);
  Alcotest.(check int) "occupancy stable" 1 (Sig_store.occupied s)

let test_remove () =
  let s = Sig_store.create ~slots:64 () in
  set s ~addr:9 ~payload:(mk_payload 3) ~time:1;
  Sig_store.set_read s (Sig_store.cell s ~addr:9) ~payload:(mk_payload 4) ~time:2;
  Sig_store.remove s ~addr:9;
  Alcotest.(check int) "removed" 0 (probe s ~addr:9);
  Alcotest.(check int) "read removed" 0 (lane s 9 2);
  Alcotest.(check int) "occupancy back" 0 (Sig_store.occupied s)

let test_collision_overwrites () =
  (* With one slot, every address collides: the second insert evicts the
     first — the signature's deliberate approximation. *)
  let s = Sig_store.create ~slots:1 () in
  set s ~addr:1 ~payload:(mk_payload 1) ~time:1;
  set s ~addr:2 ~payload:(mk_payload 2) ~time:2;
  Alcotest.(check int) "addr 1 now reports addr 2's payload" (mk_payload 2) (probe s ~addr:1)

(* The two directions of one address share a cell but not lanes. *)
let test_directions_share_cell () =
  let s = Sig_store.create ~slots:64 () in
  let c = Sig_store.cell s ~addr:77 in
  Alcotest.(check int) "cell is 4 * index" (4 * Sig_store.index s 77) c;
  Sig_store.set_write s c ~payload:(mk_payload 1) ~time:3;
  Sig_store.set_read s c ~payload:(mk_payload 2) ~time:4;
  Alcotest.(check (list int)) "four lanes"
    [ mk_payload 1; 3; mk_payload 2; 4 ]
    (Array.to_list (Array.sub (Sig_store.lanes s) c 4));
  Alcotest.(check int) "both directions occupied" 2 (Sig_store.occupied s)

let test_migrate_moves_both_directions () =
  let src = Sig_store.create ~slots:64 () and dst = Sig_store.create ~slots:64 () in
  let c = Sig_store.cell src ~addr:5 in
  Sig_store.set_write src c ~payload:(mk_payload 1) ~time:10;
  Sig_store.set_read src c ~payload:(mk_payload 2) ~time:11;
  Sig_store.migrate ~src ~dst ~addr:5;
  Alcotest.(check (list int)) "destination cell"
    [ mk_payload 1; 10; mk_payload 2; 11 ]
    (List.init 4 (lane dst 5));
  Alcotest.(check (list int)) "source cell cleared" [ 0; 0; 0; 0 ] (List.init 4 (lane src 5));
  Alcotest.(check (pair int int)) "occupancy moved" (0, 2)
    (Sig_store.occupied src, Sig_store.occupied dst);
  (* an empty direction leaves the destination's entry in place *)
  let src = Sig_store.create ~slots:64 () and dst = Sig_store.create ~slots:64 () in
  Sig_store.set_read src (Sig_store.cell src ~addr:5) ~payload:(mk_payload 3) ~time:12;
  set dst ~addr:5 ~payload:(mk_payload 4) ~time:13;
  Sig_store.migrate ~src ~dst ~addr:5;
  Alcotest.(check (list int)) "read moved, write kept"
    [ mk_payload 4; 13; mk_payload 3; 12 ]
    (List.init 4 (lane dst 5))

let test_accounting () =
  let acct = Ddp_util.Mem_account.create () in
  let s = Sig_store.create ~account:(acct, "sig") ~slots:1000 () in
  Alcotest.(check int) "charged" (1000 * Sig_store.bytes_per_slot)
    (Ddp_util.Mem_account.current acct "sig");
  Alcotest.(check int) "32 bytes per slot, both directions" (32 * 1000) (Sig_store.bytes s);
  Sig_store.release s;
  Alcotest.(check int) "released" 0 (Ddp_util.Mem_account.current acct "sig")

let test_invalid_size () =
  Alcotest.check_raises "zero slots" (Invalid_argument "Sig_store.create: slots must be positive")
    (fun () -> ignore (Sig_store.create ~slots:0 ()))

(* A reference of the two-store layout the paired cell replaced: one
   payload and one time array per direction, indexed by
   [(addr * C land max_int) mod size], with the same occupancy and
   overwrite bookkeeping. *)
module Reference = struct
  type dir = { payloads : int array; times : int array }

  type t = {
    size : int;
    writes : dir;
    reads : dir;
    mutable occupied : int;
    mutable overwrites : int;
  }

  let create size =
    let dir () = { payloads = Array.make size 0; times = Array.make size 0 } in
    { size; writes = dir (); reads = dir (); occupied = 0; overwrites = 0 }

  let index t addr = (addr * 0x2545F4914F6CDD1D land max_int) mod t.size

  let set t d ~addr ~payload ~time =
    let i = index t addr in
    if d.payloads.(i) = 0 then begin
      if payload <> 0 then t.occupied <- t.occupied + 1
    end
    else t.overwrites <- t.overwrites + 1;
    d.payloads.(i) <- payload;
    d.times.(i) <- time

  let remove t ~addr =
    let i = index t addr in
    List.iter
      (fun d ->
        if d.payloads.(i) <> 0 then t.occupied <- t.occupied - 1;
        d.payloads.(i) <- 0;
        d.times.(i) <- 0)
      [ t.reads; t.writes ]

  let cell t addr =
    let i = index t addr in
    [ t.writes.payloads.(i); t.writes.times.(i); t.reads.payloads.(i); t.reads.times.(i) ]
end

(* Property: at a power-of-two slot count (mask) and at three others
   (mod; the last spans two pages), random write/read/remove streams give
   the same slot, lanes, occupancy and overwrite count as the reference. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"paired cell == per-direction reference" ~count:100
    QCheck.(
      list_of_size Gen.(int_range 1 300)
        (triple (int_range 0 2) (int_range 0 max_int) (int_range 1 1000)))
    (fun ops ->
      List.for_all
        (fun slots ->
          let s = Sig_store.create ~slots () and r = Reference.create slots in
          let ok = ref true in
          List.iteri
            (fun i (op, addr, line) ->
              let addr = abs addr mod (if i mod 2 = 0 then 64 else max_int) in
              let payload = mk_payload line in
              (match op with
              | 0 ->
                Sig_store.set_write s (Sig_store.cell s ~addr) ~payload ~time:i;
                Reference.set r r.writes ~addr ~payload ~time:i
              | 1 ->
                Sig_store.set_read s (Sig_store.cell s ~addr) ~payload ~time:i;
                Reference.set r r.reads ~addr ~payload ~time:i
              | _ ->
                Sig_store.remove s ~addr;
                Reference.remove r ~addr);
              if Sig_store.index s addr <> Reference.index r addr then ok := false;
              if List.init 4 (lane s addr) <> Reference.cell r addr then ok := false)
            ops;
          !ok
          && Sig_store.occupied s = r.occupied
          && Sig_store.overwrites s = r.overwrites)
        [ 1024; 1000; 3; (1 lsl 18) + 3 ])

(* Property: with a table far larger than the address set, the signature
   behaves exactly (no false answers) as long as no two addresses share a
   slot — verified against a model map. *)
let prop_exact_when_no_collisions =
  QCheck.Test.make ~name:"signature exact modulo collisions" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (pair (int_range 0 10_000) (int_range 1 1000)))
    (fun ops ->
      let s = Sig_store.create ~slots:65536 () in
      let model = Hashtbl.create 16 in
      let slot_owner = Hashtbl.create 16 in
      let ok = ref true in
      List.iteri
        (fun i (addr, line) ->
          let payload = mk_payload line in
          let slot = Sig_store.index s addr in
          let collided =
            match Hashtbl.find_opt slot_owner slot with
            | Some owner -> owner <> addr
            | None -> false
          in
          Hashtbl.replace slot_owner slot addr;
          set s ~addr ~payload ~time:i;
          Hashtbl.replace model addr payload;
          if not collided then begin
            let expected = Hashtbl.find model addr in
            if probe s ~addr <> expected then ok := false
          end)
        ops;
      !ok)

(* Lane [k] of the perfect store's cell for [addr] (inserting it). *)
let perfect_lane s addr k =
  let c = Perfect_sig.cell s ~addr in
  (Perfect_sig.lanes s).(c + k)

(* Property: perfect signature is a faithful map whatever the collisions. *)
let prop_perfect_is_exact =
  QCheck.Test.make ~name:"perfect signature faithful" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 80) (pair (int_range 0 50) (int_range 1 1000)))
    (fun ops ->
      let s = Perfect_sig.create () in
      let model = Hashtbl.create 16 in
      List.iteri
        (fun i (addr, line) ->
          let payload = mk_payload line in
          Perfect_sig.set_write s (Perfect_sig.cell s ~addr) ~payload ~time:i;
          Hashtbl.replace model addr payload)
        ops;
      Hashtbl.fold (fun addr payload acc -> acc && perfect_lane s addr 0 = payload) model true)

(* Property: enough live addresses to grow the table several times, with
   removals in between (backward-shift deletion), and every cell still
   matches a model map of all four lanes. *)
let prop_perfect_growth_and_removal =
  QCheck.Test.make ~name:"perfect signature growth + removal" ~count:20
    QCheck.(list_of_size Gen.(int_range 1000 12_000) (pair (int_range 0 9) (int_range 0 20_000)))
    (fun ops ->
      let s = Perfect_sig.create () in
      let model = Hashtbl.create 1024 in
      let get addr = Option.value (Hashtbl.find_opt model addr) ~default:[ 0; 0; 0; 0 ] in
      List.iteri
        (fun i (op, addr) ->
          let payload = mk_payload (1 + (i mod 1000)) in
          match op with
          | 0 | 1 | 2 | 3 ->
            Perfect_sig.set_write s (Perfect_sig.cell s ~addr) ~payload ~time:i;
            Hashtbl.replace model addr (match get addr with [ _; _; r; rt ] -> [ payload; i; r; rt ] | l -> l)
          | 4 | 5 | 6 ->
            Perfect_sig.set_read s (Perfect_sig.cell s ~addr) ~payload ~time:i;
            Hashtbl.replace model addr (match get addr with [ w; wt; _; _ ] -> [ w; wt; payload; i ] | l -> l)
          | _ ->
            Perfect_sig.remove s ~addr;
            Hashtbl.remove model addr)
        ops;
      Perfect_sig.entries s = Hashtbl.length model
      && Hashtbl.fold
           (fun addr lanes acc -> acc && List.init 4 (perfect_lane s addr) = lanes)
           model true)

let test_perfect_remove () =
  let s = Perfect_sig.create () in
  Perfect_sig.set_write s (Perfect_sig.cell s ~addr:5) ~payload:(mk_payload 1) ~time:0;
  Alcotest.(check int) "entries" 1 (Perfect_sig.entries s);
  Perfect_sig.remove s ~addr:5;
  Alcotest.(check int) "entries 0" 0 (Perfect_sig.entries s);
  Alcotest.(check int) "gone" 0 (perfect_lane s 5 0)

let suite =
  [
    Alcotest.test_case "empty probe" `Quick test_empty_probe;
    Alcotest.test_case "set/probe" `Quick test_set_probe;
    Alcotest.test_case "overwrite same addr" `Quick test_overwrite_same_addr;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "collision overwrites" `Quick test_collision_overwrites;
    Alcotest.test_case "directions share a cell" `Quick test_directions_share_cell;
    Alcotest.test_case "migrate moves both directions" `Quick test_migrate_moves_both_directions;
    Alcotest.test_case "accounting" `Quick test_accounting;
    Alcotest.test_case "invalid size" `Quick test_invalid_size;
    Alcotest.test_case "perfect remove" `Quick test_perfect_remove;
    Test_seed.to_alcotest prop_matches_reference;
    Test_seed.to_alcotest prop_exact_when_no_collisions;
    Test_seed.to_alcotest prop_perfect_is_exact;
    Test_seed.to_alcotest prop_perfect_growth_and_removal;
  ]
