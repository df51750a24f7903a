(** The signature: a fixed-size hashed slot array holding the packed
    payload and timestamp of the last write and the last read that
    mapped to each slot (paper Sec. III-B).  Collisions overwrite — the
    bounded-memory approximation quantified by Table I.

    Both directions share the slot index: a slot is one cell of four
    lanes = write payload, write time, read payload, read time.  Cells
    are stored in pages of 2^18 slots; it satisfies {!Algo.STORE}. *)

type t

val create : ?account:Ddp_util.Mem_account.t * string -> slots:int -> unit -> t
val release : t -> unit
(** Return the accounted bytes (call when discarding a signature). *)

val occupied : t -> int
(** Non-empty directions over all slots (a slot holding a read and a
    write counts twice). *)

val overwrites : t -> int
(** Sets that landed on an already-occupied direction: the same-address
    update / hash-collision rate the telemetry layer reports (a cheap
    proxy for Eq. (2)'s collision behaviour). *)

val index : t -> int -> int
(** The slot an address hashes to: [(addr * C land max_int) mod size],
    computed with a mask when [size] is a power of two. *)

val cell : t -> addr:int -> int
(** Locate the address's cell: its offset in {!lanes}, which is 4 times
    the slot's position in its page. *)

val lanes : t -> int array
(** The page holding the last located cell. *)

val set_write : t -> int -> payload:int -> time:int -> unit
(** Overwrite the write direction of the last located cell, at the given
    offset. *)

val set_read : t -> int -> payload:int -> time:int -> unit

val remove : t -> addr:int -> unit
(** Variable-lifetime analysis: clear both directions of a freed
    address's cell (may evict a colliding live entry — causes false
    negatives only). *)

val migrate : src:t -> dst:t -> addr:int -> unit
(** Redistribution: move each non-empty direction of [addr]'s cell from
    [src] to [dst], then clear it in [src]. *)

val bytes : t -> int
val bytes_per_slot : int
