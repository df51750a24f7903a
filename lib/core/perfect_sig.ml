(* The "perfect signature" of the paper's Sec. VI-A: every address has its
   own entry, so hash collisions — and therefore false positives and
   false negatives — cannot happen.  It is the accuracy baseline for
   Table I and the dependence oracle for the loop-parallelism comparison
   of Table II.

   An open-addressing table keyed by address, with linear probing and
   Fibonacci hashing over one int array, grown at a load of 3/4.  Entry
   [i] is five lanes:

     lanes.(5i) the address (or [empty])   lanes.(5i+1 .. 5i+4) its cell

   where the cell has the same four lanes as a signature slot (write
   payload, write time, read payload, read time).  A lookup is a multiply,
   a shift and a short probe: no C hash, compare or allocation.  Removal
   shifts later entries of the probe run back, so no tombstones build up.
   Unbounded memory, which is exactly the trade-off signatures avoid. *)

type t = {
  mutable lanes : int array;
  mutable bits : int;  (* capacity = 1 lsl bits entries *)
  mutable entries : int;
  account : (Ddp_util.Mem_account.t * string) option;
}

let stride = 5
let empty = min_int
let initial_bits = 8

let charge t n =
  match t.account with
  | Some (acct, cat) -> Ddp_util.Mem_account.add acct cat n
  | None -> ()

let capacity t = 1 lsl t.bits
let bytes t = capacity t * stride * 8

let fresh bits =
  let l = Array.make ((1 lsl bits) * stride) 0 in
  for i = 0 to (1 lsl bits) - 1 do
    l.(i * stride) <- empty
  done;
  l

let create ?account () =
  let t = { lanes = fresh initial_bits; bits = initial_bits; entries = 0; account } in
  charge t (bytes t);
  t

(* The home entry of an address: the top [bits] bits of its product. *)
let home bits addr = (addr * 0x2545F4914F6CDD1D) lsr (63 - bits)

(* Entry index holding [addr], or the empty entry ending its probe run. *)
let find lanes bits addr =
  let mask = (1 lsl bits) - 1 in
  let i = ref (home bits addr) in
  while
    let k = lanes.(!i * stride) in
    k <> addr && k <> empty
  do
    i := (!i + 1) land mask
  done;
  !i

let copy ~src i ~dst j =
  for k = 0 to stride - 1 do
    dst.(j + k) <- src.(i + k)
  done

let grow t =
  let old = t.lanes and old_cap = capacity t in
  t.bits <- t.bits + 1;
  t.lanes <- fresh t.bits;
  for i = 0 to old_cap - 1 do
    let b = i * stride in
    let k = old.(b) in
    if k <> empty then copy ~src:old b ~dst:t.lanes (find t.lanes t.bits k * stride)
  done;
  charge t (bytes t - (old_cap * stride * 8))

let rec cell t ~addr =
  if addr = empty then invalid_arg "Perfect_sig.cell: address min_int is reserved";
  let b = find t.lanes t.bits addr * stride in
  if t.lanes.(b) = addr then b + 1
  else if 4 * (t.entries + 1) > 3 * capacity t then begin
    grow t;
    cell t ~addr
  end
  else begin
    (* a fresh entry's four lanes are already 0 *)
    t.lanes.(b) <- addr;
    t.entries <- t.entries + 1;
    b + 1
  end

let lanes t = t.lanes

let set_write t c ~payload ~time =
  t.lanes.(c) <- payload;
  t.lanes.(c + 1) <- time

let set_read t c ~payload ~time =
  t.lanes.(c + 2) <- payload;
  t.lanes.(c + 3) <- time

(* Backward-shift deletion: walk the probe run after the hole and move
   back every entry whose home does not lie strictly between the hole
   and its current position, so every remaining address stays reachable
   from its home. *)
let remove t ~addr =
  let l = t.lanes and mask = capacity t - 1 in
  let hole = ref (find l t.bits addr) in
  if addr <> empty && l.(!hole * stride) = addr then begin
    t.entries <- t.entries - 1;
    let j = ref ((!hole + 1) land mask) in
    while l.(!j * stride) <> empty do
      let h = home t.bits l.(!j * stride) in
      if (!j - h) land mask >= (!j - !hole) land mask then begin
        copy ~src:l (!j * stride) ~dst:l (!hole * stride);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    let b = !hole * stride in
    l.(b) <- empty;
    for k = 1 to stride - 1 do
      l.(b + k) <- 0
    done
  end

let entries t = t.entries
