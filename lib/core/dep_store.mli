(** Merged dependence storage: identical dependences are stored once with
    an occurrence count (paper Sec. III-B, output reduction ~1e5x).  An
    open-addressing table over int lanes: adding a dependence that is
    already present allocates nothing. *)

type t

val create : ?account:Ddp_util.Mem_account.t * string -> unit -> t

val add : t -> kind:Dep.kind -> sink:int -> src:int -> race:bool -> unit
val add_init : t -> sink:int -> unit
val add_key : t -> Dep.t -> occurrences:int -> unit

val mem : t -> Dep.t -> bool
val count : t -> Dep.t -> int

val distinct : t -> int
(** Number of unique dependences: "#dependences" of Table I. *)

val total_occurrences : t -> int

val merge_factor : t -> float
(** Occurrences over distinct: the output-size reduction from merging. *)

val iter : t -> (Dep.t -> int -> unit) -> unit
val fold : t -> (Dep.t -> int -> 'a -> 'a) -> 'a -> 'a
val to_list : t -> (Dep.t * int) list

val merge_into : src:t -> dst:t -> unit
(** End-of-run merge of a worker-local store into the global one. *)

module Key_set : Set.S with type elt = Dep.t

val key_set : t -> Key_set.t
val key_set_no_race : t -> Key_set.t

val approx_bytes : t -> int
(** Table footprint: capacity times three int lanes. *)
