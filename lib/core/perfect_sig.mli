(** The "perfect signature" (paper Sec. VI-A): one entry per address, no
    collisions, no false positives/negatives — the accuracy baseline.
    An integer-keyed open-addressing table whose entries carry the same
    four-lane cell as a signature slot; it satisfies {!Algo.STORE}. *)

type t

val create : ?account:Ddp_util.Mem_account.t * string -> unit -> t

val cell : t -> addr:int -> int
(** Offset in {!lanes} of the address's cell, inserted empty when absent
    (growing the table may replace {!lanes}).  Raises [Invalid_argument]
    for [min_int], the empty-entry key. *)

val lanes : t -> int array
val set_write : t -> int -> payload:int -> time:int -> unit
val set_read : t -> int -> payload:int -> time:int -> unit

val remove : t -> addr:int -> unit
(** Drop the address's entry, both directions. *)

val entries : t -> int
(** Addresses with an entry. *)

val bytes : t -> int
(** Table footprint: capacity times five int lanes. *)
