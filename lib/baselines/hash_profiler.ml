(* Chained-hash-table access store: the "alternative ... to record memory
   accesses using a hash table" of the paper's Sec. III-B, which it
   measures at 1.5-3.7x slower than signatures because colliding buckets
   must be searched for the exact address.

   Implemented deliberately in the classic chained style (bucket array of
   association lists keyed by the *exact* address) rather than reusing
   stdlib Hashtbl, so the bucket-walk cost the paper describes is really
   paid and really measurable.  Exact: no false positives or negatives.
   One table holds one direction; [Pair] puts a read and a write table
   behind Ddp_core.Algo.STORE. *)

type node = {
  n_addr : int;
  mutable payload : int;
  mutable time : int;
  mutable next : node option;
}

type t = {
  mutable buckets : node option array;
  mutable entries : int;
  account : (Ddp_util.Mem_account.t * string) option;
}

let node_bytes = 6 * 8

let create ?account ?(initial_buckets = 4096) () =
  { buckets = Array.make initial_buckets None; entries = 0; account }

let charge t n =
  match t.account with
  | Some (acct, cat) -> Ddp_util.Mem_account.add acct cat n
  | None -> ()

let bucket_of t addr = (addr * 0x9E3779B1 land max_int) mod Array.length t.buckets

let rec find_node node addr =
  match node with
  | None -> None
  | Some n -> if n.n_addr = addr then Some n else find_node n.next addr

let probe t ~addr =
  match find_node t.buckets.(bucket_of t addr) addr with Some n -> n.payload | None -> 0

let probe_time t ~addr =
  match find_node t.buckets.(bucket_of t addr) addr with Some n -> n.time | None -> 0

let grow t =
  let old = t.buckets in
  t.buckets <- Array.make (2 * Array.length old) None;
  charge t (2 * Array.length old * 8);
  Array.iter
    (fun chain ->
      let rec reinsert = function
        | None -> ()
        | Some n ->
          let next = n.next in
          let b = bucket_of t n.n_addr in
          n.next <- t.buckets.(b);
          t.buckets.(b) <- Some n;
          reinsert next
      in
      reinsert chain)
    old

let set t ~addr ~payload ~time =
  match find_node t.buckets.(bucket_of t addr) addr with
  | Some n ->
    n.payload <- payload;
    n.time <- time
  | None ->
    if t.entries > 2 * Array.length t.buckets then grow t;
    let b = bucket_of t addr in
    t.buckets.(b) <- Some { n_addr = addr; payload; time; next = t.buckets.(b) };
    t.entries <- t.entries + 1;
    charge t node_bytes

let remove t ~addr =
  let b = bucket_of t addr in
  let rec filter = function
    | None -> None
    | Some n ->
      if n.n_addr = addr then begin
        t.entries <- t.entries - 1;
        charge t (-node_bytes);
        n.next
      end
      else begin
        n.next <- filter n.next;
        Some n
      end
  in
  t.buckets.(b) <- filter t.buckets.(b)

let entries t = t.entries
let bytes t = (Array.length t.buckets * 8) + (t.entries * node_bytes)

module Pair = Direction_pair.Make (struct
  type nonrec t = t

  let create ?account () = create ?account ()
  let probe = probe
  let probe_time = probe_time
  let set = set
  let remove = remove
  let bytes = bytes
end)

module Algo = Ddp_core.Algo.Make (Pair)
