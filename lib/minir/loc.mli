(** Source locations packed into a single int ("file:line", as printed by
    the paper's profiler, e.g. ["1:60"]).

    The packed form fits the 24-bit location field of a signature-slot
    payload. *)

type t = int

val none : t
(** The absent location, printed ["*"] (used by INIT dependences). *)

val make : file:int -> line:int -> t
(** Raises [Invalid_argument] if [file > 255] or [line] outside
    [\[1, 65535\]]. *)

val file : t -> int
val line : t -> int
val is_none : t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit
val compare : t -> t -> int

val max_line : int
val max_file : int

val thread_bits : int

val max_thread : int
(** Largest thread id a payload can hold (1023).  The interpreter raises
    when a [Par] or the task runtime would need a larger one. *)
