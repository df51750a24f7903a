(* The signature: a fixed-size hashed slot array (paper Sec. III-B).

   Unlike a bloom filter, each slot holds a full payload (the packed
   source location / variable / thread of the last access, see Payload)
   plus a timestamp, because building a dependence needs the source line,
   and the multi-threaded extension (Sec. V-B) needs access times.  A
   single hash function is used — the paper makes the same choice to keep
   element *removal* possible for the variable-lifetime analysis.

   The read and the write signature share one slot index, so they live
   in int arrays of four-lane cells:

     lanes.(4i)   last write's payload     lanes.(4i+1)  its time
     lanes.(4i+2) last read's payload      lanes.(4i+3)  its time

   Algorithm 1 hashes an address once per access and finds both
   directions in the same 32-byte cell.  A payload of 0 marks an empty
   direction.  The cells are split into pages of 2^18 slots (8 MiB):
   glibc malloc serves a block above 32 MiB with a fresh mmap every time,
   so a single array at the default 2^20 slots (32 MiB) would page-fault
   its whole footprint on every session instead of reusing freed memory.

   Hash collisions overwrite: that is the deliberate approximation that
   trades bounded memory for a small false-positive/negative rate,
   quantified by Table I and predicted by Eq. (2). *)

type t = {
  pages : int array array;  (* 4 lanes per slot: write payload, write time, read payload, read time *)
  mutable page : int;  (* page of the last located cell *)
  size : int;
  mask : int;  (* size - 1 when size is a power of two, else -1 *)
  mutable occupied : int;  (* non-empty directions, both counted *)
  mutable overwrites : int;  (* sets that landed on an occupied direction *)
  account : (Ddp_util.Mem_account.t * string) option;
}

let bytes_per_slot = 32 (* four boxed-free int lanes *)
let page_bits = 18
let page_slots = 1 lsl page_bits

let create ?account ~slots () =
  if slots <= 0 then invalid_arg "Sig_store.create: slots must be positive";
  (match account with
  | Some (acct, cat) -> Ddp_util.Mem_account.add acct cat (slots * bytes_per_slot)
  | None -> ());
  {
    pages =
      Array.init
        ((slots + page_slots - 1) / page_slots)
        (fun p -> Array.make (4 * min page_slots (slots - (p * page_slots))) 0);
    page = 0;
    size = slots;
    mask = (if slots land (slots - 1) = 0 then slots - 1 else -1);
    occupied = 0;
    overwrites = 0;
    account;
  }

let release t =
  match t.account with
  | Some (acct, cat) -> Ddp_util.Mem_account.sub acct cat (t.size * bytes_per_slot)
  | None -> ()

let occupied t = t.occupied
let overwrites t = t.overwrites

(* Fibonacci (multiplicative) hashing spreads consecutive addresses —
   the common case for array walks — across the table.  The hash is
   non-negative, so on a power-of-two table the mask picks the same slot
   as [mod] without the division. *)
let index t addr =
  let h = addr * 0x2545F4914F6CDD1D land max_int in
  if t.mask >= 0 then h land t.mask else h mod t.size

let cell t ~addr =
  let i = index t addr in
  t.page <- i lsr page_bits;
  (i land (page_slots - 1)) lsl 2

let lanes t = t.pages.(t.page)

(* One direction of the located cell: [i] is its payload lane, [i + 1]
   its time. *)
let set_lane t i ~payload ~time =
  let l = lanes t in
  if l.(i) = 0 then begin
    if payload <> 0 then t.occupied <- t.occupied + 1
  end
  else t.overwrites <- t.overwrites + 1;
  l.(i) <- payload;
  l.(i + 1) <- time

let set_write t c ~payload ~time = set_lane t c ~payload ~time
let set_read t c ~payload ~time = set_lane t (c + 2) ~payload ~time

(* Variable-lifetime analysis support: drop both directions of a freed
   address's cell.  With one hash function this may also evict a
   colliding live entry — an accepted approximation (it can cause a
   false negative, never an unsound extra dependence). *)
let remove t ~addr =
  let c = cell t ~addr in
  let l = lanes t in
  if l.(c) <> 0 then t.occupied <- t.occupied - 1;
  if l.(c + 2) <> 0 then t.occupied <- t.occupied - 1;
  l.(c) <- 0;
  l.(c + 1) <- 0;
  l.(c + 2) <- 0;
  l.(c + 3) <- 0

(* Redistribution (Sec. IV-A): hand [addr]'s cell from one worker's
   signature to another's.  Each non-empty direction overwrites the
   destination's; an empty one leaves the destination's entry alone. *)
let migrate ~src ~dst ~addr =
  let c = cell src ~addr in
  let l = lanes src in
  let d = cell dst ~addr in
  if l.(c) <> 0 then set_write dst d ~payload:l.(c) ~time:l.(c + 1);
  if l.(c + 2) <> 0 then set_read dst d ~payload:l.(c + 2) ~time:l.(c + 3);
  remove src ~addr

let bytes t = t.size * bytes_per_slot
