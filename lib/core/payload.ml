(* Signature-slot payloads.

   The paper stores the source line of the last access in each signature
   slot (Sec. III-B); for multi-threaded targets the record is extended
   with a thread id (Sec. V).  We pack location (24 bits), variable id
   (20 bits) and thread id (10 bits) into one OCaml int.  A packed payload
   is never 0 because a real location always has line >= 1, so 0 serves as
   the empty-slot sentinel. *)

let thread_bits = Ddp_minir.Loc.thread_bits
let var_bits = 20
let loc_bits = 24

let max_thread = Ddp_minir.Loc.max_thread
let max_var = (1 lsl var_bits) - 1
let max_loc = (1 lsl loc_bits) - 1

let empty = 0

let pack ~loc ~var ~thread =
  if loc <= 0 || loc > max_loc then invalid_arg "Payload.pack: loc out of range";
  if var < 0 || var > max_var then invalid_arg "Payload.pack: var out of range";
  if thread < 0 || thread > max_thread then invalid_arg "Payload.pack: thread out of range";
  (loc lsl (var_bits + thread_bits)) lor (var lsl thread_bits) lor thread

(* Unchecked variant for the instrumentation hot path: callers guarantee
   ranges (the interpreter validates lines up front and never hands out a
   thread id above [Loc.max_thread]). *)
let pack_unsafe ~loc ~var ~thread =
  (loc lsl (var_bits + thread_bits)) lor (var lsl thread_bits) lor thread

let loc p = p lsr (var_bits + thread_bits)
let var p = (p lsr thread_bits) land max_var
let thread p = p land max_thread
let is_empty p = p = 0
