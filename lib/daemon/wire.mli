(** [ddpd-wire/1]: the daemon's framing layer.

    A frame is [<len:4 BE><type:1><payload:len bytes>]; [len] covers the
    payload only and is capped ({!max_payload}) so a garbage length
    prefix is a typed {!Protocol_error}, never an allocation bomb.

    Conversation grammar (client to the left of the arrow):
    {v
      HELLO kv      ->  ADMIT kv | BUSY kv | ERR text
      DATA bytes*   ->  (trace v2 bytes, split at arbitrary boundaries)
      FIN           ->  REPORT json      (ddpd-report/1)
      STATUS        ->  STATUS_REPLY json (ddpd-status/1; instead of HELLO)
    v}

    Key-value payloads (HELLO/ADMIT/BUSY) are newline-separated
    [key=value] lines; values may not contain newlines. *)

type frame_type =
  | Hello
  | Data
  | Fin
  | Status_req
  | Admit
  | Busy
  | Err
  | Report
  | Status_reply

val frame_char : frame_type -> char
val frame_name : frame_type -> string

exception Protocol_error of string
(** Malformed framing: unknown type byte, oversized length, or a
    connection cut mid-frame. *)

exception Timeout
(** {!read_frame} gave up waiting (its [deadline] passed). *)

val max_payload : int

val write_frame : Unix.file_descr -> frame_type -> string -> unit
(** Raises [Unix.Unix_error] if the peer is gone (caller handles), and
    [Invalid_argument] for a payload over {!max_payload}. *)

val write_data_frames : Unix.file_descr -> chunk_bytes:int -> Buffer.t -> unit
(** Send the buffer's bytes as consecutive DATA frames of [chunk_bytes]
    each (the last one shorter), with [chunk_bytes] clamped to
    [1 .. max_payload]; nothing for an empty buffer.  The payloads are
    copied out of the buffer through one frame buffer, allocated once.
    Raises [Unix.Unix_error] if the peer is gone. *)

val read_frame : ?deadline:float -> Unix.file_descr -> (frame_type * string) option
(** Blocking read of one whole frame; [None] on clean EOF at a frame
    boundary.  [deadline] is absolute ({!Unix.gettimeofday} scale);
    crossing it raises {!Timeout}.  EOF inside a frame raises
    {!Protocol_error}. *)

val kv_encode : (string * string) list -> string

val kv_decode : string -> (string * string) list
(** Raises {!Protocol_error} on a line without [=] or a key repeated. *)

val kv_get : (string * string) list -> string -> string option
