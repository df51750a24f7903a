(** Shadow-memory access stores — the traditional, exact approach the
    paper's signatures replace (Sec. III-B).  One instance holds one
    direction; {!Flat_pair} and {!Paged_pair} pair a read and a write
    store into {!Ddp_core.Algo.STORE}. *)

module Flat : sig
  type t

  val create : ?account:Ddp_util.Mem_account.t * string -> unit -> t
  val probe : t -> addr:int -> int
  val probe_time : t -> addr:int -> int
  val set : t -> addr:int -> payload:int -> time:int -> unit
  val remove : t -> addr:int -> unit

  val bytes : t -> int
  val covered_range : t -> int
  (** One past the highest address seen: flat shadow memory pays for the
      whole range. *)
end

module Paged : sig
  type t

  val create : ?account:Ddp_util.Mem_account.t * string -> unit -> t
  val probe : t -> addr:int -> int
  val probe_time : t -> addr:int -> int
  val set : t -> addr:int -> payload:int -> time:int -> unit
  val remove : t -> addr:int -> unit

  val bytes : t -> int
  val pages : t -> int
  val page_size : int
end

module Addr_spread : sig
  val spread : factor:int -> int -> int
  (** Emulate sparse 64-bit pointer layouts over MiniIR's dense addresses
      (used by the shadow-memory ablation bench). *)
end

module Flat_pair : Direction_pair.S with type direction = Flat.t
module Paged_pair : Direction_pair.S with type direction = Paged.t
module Algo_flat : Ddp_core.Algo.S with type store = Flat_pair.t
module Algo_paged : Ddp_core.Algo.S with type store = Paged_pair.t
