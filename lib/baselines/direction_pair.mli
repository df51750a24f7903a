(** Pair a per-direction access store (one instance for reads, one for
    writes) into the paired store Algorithm 1 runs over.  Each direction
    keeps its own lookups and byte accounting. *)

module type DIRECTION = sig
  type t

  val create : ?account:Ddp_util.Mem_account.t * string -> unit -> t
  val probe : t -> addr:int -> int
  (** Packed payload of the last recorded access; 0 if none. *)

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

module Make (D : DIRECTION) : S with type direction = D.t
