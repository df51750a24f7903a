(* Trace files: record one run's instrumentation stream to disk and
   replay it later into any profiler or analysis.

   This supports the paper's reuse story operationally — the whole point
   of a generic profiler is that one collection serves many analyses, and
   a persisted trace lets those analyses run without re-executing the
   (slow) instrumented program.

   Format (version 2): a line-oriented text file.
     ddp-trace 2
     %class <name> <tag>...   (one per event class, self-describing)
     <event lines>
     %var <id> <name>         (symbol table, written after the events)
     %file <id> <name>
     %end                     (seal: absent means truncated)
   An event line is a one-byte tag followed by integer fields; locations
   are stored packed (they are plain ints).  The writer emits
   [<tag> <f1> <f2> ...] with one space before each field; the reader
   accepts any run of spaces (including none) between the tag and the
   first field and between fields, plus trailing spaces, and each field
   must match [-?[0-9]+] within the 63-bit int range.  Readers before the
   in-place parser also took the other spellings [int_of_string] knows
   ([0x1f], [0o7], [0b1], [0u5], [+3], [1_000]); no writer ever emitted
   them, and they are now a parse error.  The [%class] header maps each
   event class of the algebra to the tags it owns, so a reader can skip
   events of a declared-but-unknown class instead of dying on them —
   adding a class is a header change, not a format break.  Variable and
   file names may contain no newlines; names are written escaped with
   String.escaped.

   Version 1 (no [%class] header, no Sync events) is still read
   bit-for-bit by [load]; [save ~version:`V1] writes it for tests.

   The writer appends each line's tag and decimal digits straight into a
   [Buffer]; the reader, {!Stream}, is an incremental push decoder that
   scans event lines in place in the chunk it was fed.  Callers feed
   byte chunks split at arbitrary boundaries (the daemon receives traces
   as network frames) and pull decoded events; input ending mid-line
   yields [Need_more], never a parse error.  [load] is the whole-file
   specialization. *)

let magic_v1 = "ddp-trace 1"
let magic = "ddp-trace 2"

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* -- the class/tag vocabulary --------------------------------------------- *)

(* Tags owned by each class, in event-declaration order.  This is the
   v2 header; v1 files implicitly use the same map minus [Sync]. *)
let class_tags = function
  | Event.Class.Memory -> [ 'R'; 'W' ]
  | Event.Class.Region -> [ 'B'; 'I'; 'E' ]
  | Event.Class.Frame -> [ 'C'; 'T'; 'X' ]
  | Event.Class.Alloc -> [ 'A'; 'F' ]
  | Event.Class.Sync -> [ 'Y' ]

let sync_kind_int = function
  | Event.Task_spawn -> 0
  | Event.Task_join -> 1
  | Event.Lock_acquire -> 2
  | Event.Lock_release -> 3

let sync_kind_of_int = function
  | 0 -> Some Event.Task_spawn
  | 1 -> Some Event.Task_join
  | 2 -> Some Event.Lock_acquire
  | 3 -> Some Event.Lock_release
  | _ -> None

(* -- writing --------------------------------------------------------------- *)

(* One writer serves every output.  [to_buffer] appends to the caller's
   buffer; [save] and the streaming recorder append to their own and
   hand it to the channel whenever it reaches [flush_bytes]. *)
type writer = {
  buf : Buffer.t;
  digits : Bytes.t;  (* per writer: client threads encode concurrently *)
  oc : out_channel option;
}

let flush_bytes = 64 * 1024

(* 20 bytes hold [min_int]: a sign and 19 digits. *)
let writer ?oc buf = { buf; digits = Bytes.create 20; oc }

(* [n] in decimal, as [string_of_int] prints it.  The digits come from
   the non-positive value, so [min_int], which has no positive
   counterpart, takes the same path as every other negative. *)
let add_int w n =
  if n >= 0 && n < 10 then Buffer.add_char w.buf (Char.unsafe_chr (48 + n))
  else begin
    let d = w.digits in
    let i = ref (Bytes.length d) in
    let m = ref (if n < 0 then n else -n) in
    while !m <> 0 do
      decr i;
      Bytes.unsafe_set d !i (Char.unsafe_chr (48 - (!m mod 10)));
      m := !m / 10
    done;
    if n < 0 then begin
      decr i;
      Bytes.unsafe_set d !i '-'
    end;
    Buffer.add_subbytes w.buf d !i (Bytes.length d - !i)
  end

let field w n =
  Buffer.add_char w.buf ' ';
  add_int w n

let spill w =
  match w.oc with
  | Some oc ->
    Buffer.output_buffer oc w.buf;
    Buffer.clear w.buf
  | None -> ()

let end_line w =
  Buffer.add_char w.buf '\n';
  if Buffer.length w.buf >= flush_bytes then spill w

let write_line w s =
  Buffer.add_string w.buf s;
  Buffer.add_char w.buf '\n'

let write_class_header w =
  List.iter
    (fun c ->
      Buffer.add_string w.buf "%class ";
      Buffer.add_string w.buf (Event.Class.name c);
      List.iter
        (fun tag ->
          Buffer.add_char w.buf ' ';
          Buffer.add_char w.buf tag)
        (class_tags c);
      end_line w)
    Event.Class.all

let bool_int b = if b then 1 else 0

(* Streaming hooks: each event becomes one line in the writer's buffer.
   Built class-by-class so the writer is itself a handler composition. *)
let writer_handler w =
  let tag c = Buffer.add_char w.buf c and f = field w in
  Handler.make
    ~memory:
      {
        Event.on_read =
          (fun ~addr ~loc ~var ~thread ~time ~locked ->
            tag 'R'; f addr; f loc; f var; f thread; f time; f (bool_int locked); end_line w);
        on_write =
          (fun ~addr ~loc ~var ~thread ~time ~locked ->
            tag 'W'; f addr; f loc; f var; f thread; f time; f (bool_int locked); end_line w);
      }
    ~region:
      {
        Event.on_region_enter =
          (fun ~loc ~kind:Event.Loop ~thread ~time ->
            tag 'B'; f loc; f thread; f time; end_line w);
        on_region_iter = (fun ~loc ~thread ~time -> tag 'I'; f loc; f thread; f time; end_line w);
        on_region_exit =
          (fun ~loc ~end_loc ~kind:Event.Loop ~iterations ~thread ~time ->
            tag 'E'; f loc; f end_loc; f iterations; f thread; f time; end_line w);
      }
    ~frame:
      {
        Event.on_call =
          (fun ~loc ~func ~thread ~time -> tag 'C'; f loc; f func; f thread; f time; end_line w);
        on_return = (fun ~func ~thread ~time -> tag 'T'; f func; f thread; f time; end_line w);
        on_thread_end = (fun ~thread -> tag 'X'; f thread; end_line w);
      }
    ~alloc:
      {
        Event.on_alloc = (fun ~base ~len ~var -> tag 'A'; f base; f len; f var; end_line w);
        on_free = (fun ~base ~len ~var -> tag 'F'; f base; f len; f var; end_line w);
      }
    ~sync:
      {
        Event.on_sync =
          (fun ~kind ~obj ~thread ~time ->
            tag 'Y'; f (sync_kind_int kind); f obj; f thread; f time; end_line w);
      }
    ()

let write_symtab w (symtab : Symtab.t) =
  let entry kind id name =
    Buffer.add_string w.buf kind;
    field w id;
    Buffer.add_char w.buf ' ';
    Buffer.add_string w.buf (String.escaped name);
    end_line w
  in
  Ddp_util.Intern.iter symtab.Symtab.vars (entry "%var");
  Ddp_util.Intern.iter symtab.Symtab.files (entry "%file")

(* v2 files end with a sentinel, so truncation anywhere — even a cut
   that happens to leave a parseable final line — is always detected. *)
let end_sentinel = "%end"

let write_v2_header w =
  write_line w magic;
  write_class_header w

let write_v2_trailer w symtab =
  write_symtab w symtab;
  write_line w end_sentinel

(* Encode a complete v2 trace into a buffer: what [save] writes to disk,
   as bytes in memory. *)
let to_buffer buf events symtab =
  let w = writer buf in
  write_v2_header w;
  Event.replay (Handler.hooks (writer_handler w)) events;
  write_v2_trailer w symtab

(* Streaming recording handle: lets a caller tee an arbitrary event
   stream (live run or replay) into a trace file while it also feeds a
   profiler, then seal the file with the run's symbol table.

   Crash-safe via {!Ddp_util.Tmp_file}: events stream into
   [path ^ ".tmp"], and only a successful [finish_recording] renames it
   into place (atomic on POSIX).  An interrupted or aborted recording
   therefore never leaves a truncated file at [path] for a later [load]
   to reject, and a CLI that calls
   [Ddp_util.Tmp_file.install_signal_cleanup] doesn't even leave the
   [.tmp] behind on SIGINT/SIGTERM. *)
type recording = {
  tf : Ddp_util.Tmp_file.t;
  w : writer;
  rec_hooks : Event.hooks;
  mutable closed : bool;
}

(* Twice the flush mark, so the event line that crosses it never grows
   the buffer. *)
let channel_writer oc = writer ~oc (Buffer.create (2 * flush_bytes))

let start_recording ~path =
  let tf = Ddp_util.Tmp_file.create ~path in
  let w = channel_writer (Ddp_util.Tmp_file.oc tf) in
  write_v2_header w;
  { tf; w; rec_hooks = Handler.hooks (writer_handler w); closed = false }

let recording_hooks r = r.rec_hooks

let abort_recording r =
  if not r.closed then begin
    r.closed <- true;
    Buffer.reset r.w.buf;
    Ddp_util.Tmp_file.abort r.tf
  end

let finish_recording r symtab =
  if r.closed then invalid_arg "Trace_file.finish_recording: already closed";
  write_v2_trailer r.w symtab;
  spill r.w;
  r.closed <- true;
  Ddp_util.Tmp_file.commit r.tf

(* Record a program run to [path]; returns the run's stats. *)
let record ?sched_seed ?input_seed ~path prog =
  let r = start_recording ~path in
  let symtab = Symtab.create () in
  (try
     let (_ : Interp.stats) =
       Interp.run ~hooks:r.rec_hooks ?sched_seed ?input_seed ~symtab prog
     in
     ()
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     abort_recording r;
     Printexc.raise_with_backtrace e bt);
  finish_recording r symtab

(* Write an explicit event list (plus symtab) to [path].  [`V1] emits
   the legacy header-less format for compat testing; it cannot express
   [Sync] events and rejects them. *)
let save ?(version = `V2) ~path events symtab =
  if version = `V1 then
    List.iter
      (function
        | Event.Sync _ -> invalid_arg "Trace_file.save: version 1 cannot express Sync events"
        | _ -> ())
      events;
  let oc = open_out path in
  (try
     let w = channel_writer oc in
     (match version with `V2 -> write_v2_header w | `V1 -> write_line w magic_v1);
     Event.replay (Handler.hooks (writer_handler w)) events;
     (match version with `V2 -> write_v2_trailer w symtab | `V1 -> write_symtab w symtab);
     spill w
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

(* -- loading --------------------------------------------------------------- *)

(* Incremental push decoder.  Bytes go in via [feed] in chunks cut at
   arbitrary boundaries; decoded events come out via [next].  A partial
   line at the end of the fed input is held back (not an error) until
   either more bytes complete it or [eof] declares the input finished —
   at which point the held-back tail is parsed exactly as [input_line]
   would have delivered it (a final line needs no trailing newline).
   Event lines are parsed where they sit in the fed chunk; only a line
   that straddles two chunks is copied, into [partial].  Symbol-table
   and class-header lines update internal state instead of producing
   events; the accumulated {!symtab} is valid once [next] returns
   [Done]. *)
module Stream = struct
  type step = Event of Event.t | Need_more | Done

  type t = {
    mutable cur : string;  (* chunk being scanned *)
    mutable pos : int;  (* cursor into [cur] *)
    chunks : string Queue.t;  (* fed, not yet scanned *)
    partial : Buffer.t;  (* line fragment spanning chunk boundaries *)
    (* the line [take_line] found: bytes [line_start, line_stop) of [line] *)
    mutable line : string;
    mutable line_start : int;
    mutable line_stop : int;
    fields : int array;  (* per decoder: tenants decode concurrently *)
    symtab : Symtab.t;
    mutable version : int;
    mutable saw_magic : bool;
    mutable sealed : bool;
    mutable finished : bool;
    mutable at_eof : bool;
    mutable skip_tags : char list;
    mutable pending_vars : (int * string) list;
    mutable pending_files : (int * string) list;
  }

  (* The widest event line, [R] and [W], has six fields. *)
  let max_fields = 6

  let create () =
    {
      cur = "";
      pos = 0;
      chunks = Queue.create ();
      partial = Buffer.create 256;
      line = "";
      line_start = 0;
      line_stop = 0;
      fields = Array.make max_fields 0;
      symtab = Symtab.create ();
      version = 1;
      saw_magic = false;
      sealed = false;
      finished = false;
      at_eof = false;
      skip_tags = [];
      pending_vars = [];
      pending_files = [];
    }

  let feed t s =
    if t.at_eof then invalid_arg "Trace_file.Stream.feed: after eof";
    if s <> "" then Queue.add s t.chunks

  let eof t = t.at_eof <- true

  (* A line longer than this is rejected as corrupt, so a peer that
     streams bytes without a newline holds at most this much of the
     decoder's memory.  The writer's longest lines are symbol-table
     entries: one escaped variable or file name. *)
  let max_line_bytes = 1 lsl 20

  let check_line_length t n =
    if Buffer.length t.partial + n > max_line_bytes then
      fail "line longer than %d bytes" max_line_bytes

  let set_line t s start stop =
    t.line <- s;
    t.line_start <- start;
    t.line_stop <- stop

  let take_partial t =
    let l = Buffer.contents t.partial in
    Buffer.clear t.partial;
    set_line t l 0 (String.length l)

  let rec newline s i n =
    if i >= n then -1 else if String.unsafe_get s i = '\n' then i else newline s (i + 1) n

  (* Find the next complete line (consuming its '\n'), or — once [eof]
     has been declared — the unterminated tail, exactly as [input_line]
     delivers a final line with no trailing newline; [false] when the
     input holds no further line yet.  O(1) amortized per byte: a byte
     is copied only when its line straddles two chunks. *)
  let rec take_line t =
    let n = String.length t.cur in
    if t.pos >= n then
      if Queue.is_empty t.chunks then
        if t.at_eof && Buffer.length t.partial > 0 then begin
          take_partial t;
          true
        end
        else false
      else begin
        t.cur <- Queue.pop t.chunks;
        t.pos <- 0;
        take_line t
      end
    else
      let i = newline t.cur t.pos n in
      if i >= 0 then begin
        check_line_length t (i - t.pos);
        if Buffer.length t.partial = 0 then set_line t t.cur t.pos i
        else begin
          Buffer.add_substring t.partial t.cur t.pos (i - t.pos);
          take_partial t
        end;
        t.pos <- i + 1;
        true
      end
      else begin
        check_line_length t (n - t.pos);
        Buffer.add_substring t.partial t.cur t.pos (n - t.pos);
        t.pos <- n;
        take_line t
      end

  let line_string t = String.sub t.line t.line_start (t.line_stop - t.line_start)

  let parse_class_decl t line rest =
    match String.split_on_char ' ' rest |> List.filter (fun s -> s <> "") with
    | [] -> fail "bad class line %S" line
    | name :: tags ->
      let tags =
        List.map
          (fun s -> if String.length s = 1 then s.[0] else fail "bad class tag %S in %S" s line)
          tags
      in
      (match Event.Class.of_name name with
      | Some c ->
        (* a known class must own exactly the tags we expect, or the
           writer speaks a different dialect of "version 2" *)
        if tags <> class_tags c then fail "class %S declares unexpected tags in %S" name line
      | None -> t.skip_tags <- tags @ t.skip_tags)

  (* Every line that is not an event line: the seal and anything after
     it, blank lines, and the [%] lines (class header, symbol table). *)
  let parse_meta_line t line =
    if t.sealed then fail "content after %%end sentinel: %S" line
    else if line = "" then ()
    else if line = end_sentinel then
      if t.version >= 2 then t.sealed <- true
      else fail "end sentinel in a version-1 trace"
    else
      match String.index_opt line ' ' with
      | None -> fail "bad symtab line %S" line
      | Some sp1 -> (
        let kind = String.sub line 1 (sp1 - 1) in
        let rest = String.sub line (sp1 + 1) (String.length line - sp1 - 1) in
        if kind = "class" then
          if t.version >= 2 then parse_class_decl t line rest
          else fail "class header in a version-1 trace: %S" line
        else
          match String.index_opt rest ' ' with
          | None -> fail "bad symtab line %S" line
          | Some sp2 ->
            let id =
              match int_of_string_opt (String.sub rest 0 sp2) with
              | Some id -> id
              | None -> fail "bad symtab id in line %S" line
            in
            let name =
              let raw = String.sub rest (sp2 + 1) (String.length rest - sp2 - 1) in
              try Scanf.unescaped raw
              with Scanf.Scan_failure _ | Failure _ | End_of_file ->
                fail "bad escaped name %S in line %S" raw line
            in
            if kind = "var" then t.pending_vars <- (id, name) :: t.pending_vars
            else if kind = "file" then t.pending_files <- (id, name) :: t.pending_files
            else fail "unknown symtab kind %S" kind)

  let consume_magic t =
    let line = line_string t in
    if line = magic then t.version <- 2
    else if line = magic_v1 then t.version <- 1
    else fail "bad magic %S (expected %S)" line magic;
    t.saw_magic <- true

  let is_digit c = c >= '0' && c <= '9'
  let min_int_div10 = min_int / 10

  let bad_integer t s start stop =
    let rec token_end j =
      if j < stop && String.unsafe_get s j <> ' ' then token_end (j + 1) else j
    in
    fail "bad integer %S in line %S" (String.sub s start (token_end start - start)) (line_string t)

  (* The fields of an event line, bytes [i, stop) of [s] after the tag:
     tokens separated by runs of spaces, each [-?[0-9]+] in the 63-bit
     range.  The value is accumulated negatively, so [min_int] parses and
     anything past either end of the range wraps to a sign that gives it
     away.  Counts every field but keeps only the first [max_fields]. *)
  let scan_fields t s i stop =
    let n = ref 0 and j = ref i in
    while !j < stop do
      if String.unsafe_get s !j = ' ' then incr j
      else begin
        let start = !j in
        let neg = String.unsafe_get s start = '-' in
        let first = if neg then start + 1 else start in
        let acc = ref 0 and p = ref first in
        while !p < stop && is_digit (String.unsafe_get s !p) do
          let a = (!acc * 10) - (Char.code (String.unsafe_get s !p) - 48) in
          if !acc < min_int_div10 || a > 0 then bad_integer t s start stop;
          acc := a;
          incr p
        done;
        if !p = first || (!p < stop && String.unsafe_get s !p <> ' ') then
          bad_integer t s start stop;
        if not neg && !acc = min_int then bad_integer t s start stop;
        if !n < max_fields then t.fields.(!n) <- (if neg then !acc else - !acc);
        incr n;
        j := !p
      end
    done;
    !n

  (* Install the pending symbol table once the input is complete: names
     must land at the recorded ids, so insert in id order. *)
  let finalize t =
    if not t.saw_magic then fail "empty trace file";
    if t.version >= 2 && not t.sealed then fail "truncated trace: missing %%end sentinel";
    let insert intern pending =
      List.sort compare pending
      |> List.iteri (fun expected (id, name) ->
             if id <> expected then fail "non-dense symtab ids in trace";
             let actual = Ddp_util.Intern.intern intern name in
             if actual <> id then fail "symtab id mismatch for %S" name)
    in
    insert t.symtab.Symtab.vars t.pending_vars;
    insert t.symtab.Symtab.files t.pending_files;
    t.finished <- true

  let rec next t =
    if t.finished then Done
    else if not (take_line t) then
      if not t.at_eof then Need_more
      else begin
        finalize t;
        Done
      end
    else if not t.saw_magic then begin
      consume_magic t;
      next t
    end
    else
      let s = t.line and i = t.line_start and stop = t.line_stop in
      if t.sealed || i = stop || String.unsafe_get s i = '%' then begin
        parse_meta_line t (line_string t);
        next t
      end
      else event_line t s i stop

  (* An event line, parsed in place: the tag byte, then its fields. *)
  and event_line t s i stop =
    let tag = String.unsafe_get s i in
    let n = scan_fields t s (i + 1) stop in
    let f = t.fields in
    match (tag, n) with
    | 'R', 6 ->
      Event
        (Event.Read
           { addr = f.(0); loc = f.(1); var = f.(2); thread = f.(3); time = f.(4); locked = f.(5) <> 0 })
    | 'W', 6 ->
      Event
        (Event.Write
           { addr = f.(0); loc = f.(1); var = f.(2); thread = f.(3); time = f.(4); locked = f.(5) <> 0 })
    | 'B', 3 -> Event (Event.Region_enter { loc = f.(0); thread = f.(1); time = f.(2) })
    | 'I', 3 -> Event (Event.Region_iter { loc = f.(0); thread = f.(1); time = f.(2) })
    | 'E', 5 ->
      Event
        (Event.Region_exit
           { loc = f.(0); end_loc = f.(1); iterations = f.(2); thread = f.(3); time = f.(4) })
    | 'A', 3 -> Event (Event.Alloc { base = f.(0); len = f.(1); var = f.(2) })
    | 'F', 3 -> Event (Event.Free { base = f.(0); len = f.(1); var = f.(2) })
    | 'C', 4 -> Event (Event.Call { loc = f.(0); func = f.(1); thread = f.(2); time = f.(3) })
    | 'T', 3 -> Event (Event.Return { func = f.(0); thread = f.(1); time = f.(2) })
    | 'X', 1 -> Event (Event.Thread_end { thread = f.(0) })
    | 'Y', 4 when t.version >= 2 -> (
      match sync_kind_of_int f.(0) with
      | Some kind -> Event (Event.Sync { kind; obj = f.(1); thread = f.(2); time = f.(3) })
      | None -> fail "unknown sync kind in line %S" (line_string t))
    | _ ->
      if List.mem tag t.skip_tags then next t (* declared by an unknown class: skip *)
      else fail "malformed event line %S" (line_string t)

  let symtab t = t.symtab
  let is_sealed t = t.sealed
end

let load ~path =
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let s = Stream.create () in
  Stream.feed s contents;
  Stream.eof s;
  let events = ref [] in
  let rec drain () =
    match Stream.next s with
    | Stream.Event e ->
      events := e :: !events;
      drain ()
    | Stream.Done -> ()
    | Stream.Need_more -> assert false (* eof was declared *)
  in
  drain ();
  (List.rev !events, Stream.symtab s)
