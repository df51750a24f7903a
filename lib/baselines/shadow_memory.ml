(* Shadow-memory access stores: the traditional approach the paper argues
   against (Sec. III-B).

   [Flat] is the literal scheme: one table entry per address covering the
   range from the lowest to the highest address the program touches.  On
   real 64-bit address spaces this wastes enormous memory (the paper cites
   runs impossible under 16 GB); our MiniIR address space is dense, so the
   ablation bench emulates realistic pointer spread by scaling addresses
   (see Addr_spread below) before feeding this store.

   [Paged] is the multilevel-table mitigation the paper mentions: shadow
   pages are allocated on demand, so memory follows the touched footprint
   rather than the address range.  Both are exact (no false positives or
   negatives); a read store and a write store of either kind pair into
   Ddp_core.Algo.STORE (Direction_pair), so Algorithm 1 runs unchanged
   over them. *)

module Flat = struct
  type t = {
    mutable payloads : int array;
    mutable times : int array;
    mutable limit : int;  (* one past the highest address seen *)
    account : (Ddp_util.Mem_account.t * string) option;
  }

  let bytes_per_entry = 16

  let create ?account () =
    { payloads = Array.make 1024 0; times = Array.make 1024 0; limit = 0; account }

  let charge t n =
    match t.account with
    | Some (acct, cat) -> Ddp_util.Mem_account.add acct cat n
    | None -> ()

  let ensure t addr =
    if addr >= t.limit then t.limit <- addr + 1;
    let cap = Array.length t.payloads in
    if addr >= cap then begin
      let cap' = max (2 * cap) (addr + 1) in
      let payloads = Array.make cap' 0 and times = Array.make cap' 0 in
      Array.blit t.payloads 0 payloads 0 cap;
      Array.blit t.times 0 times 0 cap;
      charge t ((cap' - cap) * bytes_per_entry);
      t.payloads <- payloads;
      t.times <- times
    end

  let probe t ~addr = if addr < Array.length t.payloads then t.payloads.(addr) else 0
  let probe_time t ~addr = if addr < Array.length t.times then t.times.(addr) else 0

  let set t ~addr ~payload ~time =
    ensure t addr;
    t.payloads.(addr) <- payload;
    t.times.(addr) <- time

  let remove t ~addr =
    if addr < Array.length t.payloads then begin
      t.payloads.(addr) <- 0;
      t.times.(addr) <- 0
    end

  let bytes t = Array.length t.payloads * bytes_per_entry
  let covered_range t = t.limit
end

module Paged = struct
  let page_bits = 12
  let page_size = 1 lsl page_bits
  let page_mask = page_size - 1

  type page = { payloads : int array; times : int array }

  type t = {
    pages : (int, page) Hashtbl.t;
    account : (Ddp_util.Mem_account.t * string) option;
  }

  let bytes_per_page = (2 * page_size * 8) + 64

  let create ?account () = { pages = Hashtbl.create 64; account }

  let page_of t addr ~create:c =
    let key = addr lsr page_bits in
    match Hashtbl.find_opt t.pages key with
    | Some p -> Some p
    | None ->
      if not c then None
      else begin
        let p = { payloads = Array.make page_size 0; times = Array.make page_size 0 } in
        Hashtbl.add t.pages key p;
        (match t.account with
        | Some (acct, cat) -> Ddp_util.Mem_account.add acct cat bytes_per_page
        | None -> ());
        Some p
      end

  let probe t ~addr =
    match page_of t addr ~create:false with
    | Some p -> p.payloads.(addr land page_mask)
    | None -> 0

  let probe_time t ~addr =
    match page_of t addr ~create:false with
    | Some p -> p.times.(addr land page_mask)
    | None -> 0

  let set t ~addr ~payload ~time =
    match page_of t addr ~create:true with
    | Some p ->
      p.payloads.(addr land page_mask) <- payload;
      p.times.(addr land page_mask) <- time
    | None -> assert false

  let remove t ~addr =
    match page_of t addr ~create:false with
    | Some p ->
      p.payloads.(addr land page_mask) <- 0;
      p.times.(addr land page_mask) <- 0
    | None -> ()

  let bytes t = Hashtbl.length t.pages * bytes_per_page
  let pages t = Hashtbl.length t.pages
end

(* Emulation of realistic pointer spread: MiniIR addresses are dense cell
   indices, while real programs scatter allocations across a huge address
   space.  Scaling an address by [factor] (plus a per-block offset salt)
   reproduces the sparsity that makes flat shadow memory blow up. *)
module Addr_spread = struct
  let spread ~factor addr = (addr * factor) + (addr land 0xFF)
end

module Flat_pair = Direction_pair.Make (Flat)
module Paged_pair = Direction_pair.Make (Paged)
module Algo_flat = Ddp_core.Algo.Make (Flat_pair)
module Algo_paged = Ddp_core.Algo.Make (Paged_pair)
