(* Source locations, packed into a single int.

   The paper prints locations as "file:line" (e.g. "1:60").  We pack the
   file id into the high bits and the line into the low 16 so a location
   fits the 24-bit field of a signature-slot payload (see
   Ddp_core.Sig_store). *)

type t = int

let line_bits = 16
let line_mask = (1 lsl line_bits) - 1
let max_line = line_mask
let max_file = (1 lsl 8) - 1

(* Thread ids share a payload with a location (see Ddp_core.Payload):
   10 bits, so ids 0..1023.  The interpreter refuses to create more
   simulated threads or tasks than that. *)
let thread_bits = 10
let max_thread = (1 lsl thread_bits) - 1

let none = 0

let make ~file ~line =
  if file < 0 || file > max_file then invalid_arg "Loc.make: file id out of range";
  if line <= 0 || line > max_line then invalid_arg "Loc.make: line out of range";
  (file lsl line_bits) lor line

let file loc = loc lsr line_bits
let line loc = loc land line_mask
let is_none loc = loc = 0

let to_string loc =
  if is_none loc then "*" else Printf.sprintf "%d:%d" (file loc) (line loc)

let pp ppf loc = Format.pp_print_string ppf (to_string loc)

(* Order by file, then line: the order in which the reporter lists sinks. *)
let compare = Int.compare
