(** Algorithm 1 of the paper: the signature-based dependence-detection
    kernel, as a functor over the access store so the same code runs over
    real signatures, the perfect signature and baseline stores. *)

(** An access store keeps, per slot or address, one cell of four int
    lanes: the last write's packed payload and time, then the last read's
    payload and time.  A payload of 0 means no such access. *)
module type STORE = sig
  type t

  val cell : t -> addr:int -> int
  (** Offset in {!lanes} of the address's cell, created empty if the
      store needs one.  Valid until the next [cell] or [remove]. *)

  val lanes : t -> int array
  (** The array holding the last located cell; read it after {!cell}, as
      a paged or growing store may return another one.  Lanes [c] ..
      [c + 3] are write payload, write time, read payload, read time. *)

  val set_write : t -> int -> payload:int -> time:int -> unit
  (** Overwrite the write direction of the last located cell, found at
      the given offset. *)

  val set_read : t -> int -> payload:int -> time:int -> unit

  val remove : t -> addr:int -> unit
  (** Forget both directions of a freed address. *)
end

type dep_observer = Dep.kind -> sink:int -> src:int -> src_time:int -> sink_time:int -> unit

module type S = sig
  type store
  type t

  val create :
    ?track_init:bool ->
    ?war_requires_prior_write:bool ->
    ?check_timestamps:bool ->
    ?race_of:(src_time:int -> sink_time:int -> bool) ->
    store:store ->
    deps:Dep_store.t ->
    unit ->
    t
  (** [war_requires_prior_write] restores the paper's literal pseudocode
      (WAR only after an earlier write); [check_timestamps] enables the
      reversed-order race flag of Sec. V-B.  [race_of] replaces the race
      verdict wholesale, receiving both endpoints' stored times — the dag
      engine threads SP-DAG strand stamps through the time field and
      decides by logical parallelism instead of observed order. *)

  val set_observer : t -> dep_observer -> unit
  val on_write : t -> addr:int -> payload:int -> time:int -> unit
  val on_read : t -> addr:int -> payload:int -> time:int -> unit
  val on_free : t -> addr:int -> unit
end

module Make (S : STORE) : S with type store = S.t

module Over_signature : S with type store = Sig_store.t
module Over_perfect : S with type store = Perfect_sig.t
