(* The exact baselines keep one access store per direction — a read
   store and a write store, each with its own lookups and byte
   accounting.  Algorithm 1 takes one paired store ({!Ddp_core.Algo.STORE})
   instead, so this adapter puts the two behind a four-lane cell: [cell]
   copies the address's write and read entries into it, and
   [set_write]/[set_read] write through to that direction's store. *)

module type DIRECTION = sig
  type t

  val create : ?account:Ddp_util.Mem_account.t * string -> unit -> t
  val probe : t -> addr:int -> int
  val probe_time : t -> addr:int -> int
  val set : t -> addr:int -> payload:int -> time:int -> unit
  val remove : t -> addr:int -> unit
  val bytes : t -> int
end

module type S = sig
  type direction

  include Ddp_core.Algo.STORE

  val make : reads:direction -> writes:direction -> t
  val create : ?account:Ddp_util.Mem_account.t * string -> unit -> t

  val bytes : t -> int
  (** Read store plus write store. *)
end

module Make (D : DIRECTION) = struct
  type direction = D.t

  type t = {
    reads : D.t;
    writes : D.t;
    cell : int array;  (* the last [cell] address's four lanes *)
    mutable addr : int;
  }

  let make ~reads ~writes = { reads; writes; cell = Array.make 4 0; addr = 0 }
  let create ?account () = make ~reads:(D.create ?account ()) ~writes:(D.create ?account ())

  (* A direction's time is only read when its payload is non-zero. *)
  let load t d ~addr i =
    let p = D.probe d ~addr in
    t.cell.(i) <- p;
    t.cell.(i + 1) <- (if p = 0 then 0 else D.probe_time d ~addr)

  let cell t ~addr =
    t.addr <- addr;
    load t t.writes ~addr 0;
    load t t.reads ~addr 2;
    0

  let lanes t = t.cell
  let set_write t _ ~payload ~time = D.set t.writes ~addr:t.addr ~payload ~time
  let set_read t _ ~payload ~time = D.set t.reads ~addr:t.addr ~payload ~time

  let remove t ~addr =
    D.remove t.reads ~addr;
    D.remove t.writes ~addr

  let bytes t = D.bytes t.reads + D.bytes t.writes
end
