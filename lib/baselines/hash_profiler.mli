(** Chained-hash-table access store: the exact-but-slower alternative to
    signatures that the paper measures at 1.5-3.7x slower (Sec. III-B). *)

type t

val create : ?account:Ddp_util.Mem_account.t * string -> ?initial_buckets:int -> unit -> t
val probe : t -> addr:int -> int
val probe_time : t -> addr:int -> int
val set : t -> addr:int -> payload:int -> time:int -> unit
val remove : t -> addr:int -> unit
val entries : t -> int
val bytes : t -> int

module Pair : Direction_pair.S with type direction = t
(** A read table and a write table as one Algorithm 1 store. *)

module Algo : Ddp_core.Algo.S with type store = Pair.t
