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
   Event lines are single characters plus integer fields; locations are
   stored packed (they are plain ints).  The [%class] header maps each
   event class of the algebra to the tags it owns, so a reader can skip
   events of a declared-but-unknown class instead of dying on them —
   adding a class is a header change, not a format break.  Variable and
   file names may contain no newlines; names are written escaped with
   String.escaped.

   Version 1 (no [%class] header, no Sync events) is still read
   bit-for-bit by [load]; [save ~version:`V1] writes it for tests.

   Parsing is built on {!Stream}, an incremental push decoder: callers
   feed byte chunks split at arbitrary boundaries (the daemon receives
   traces as network frames) and pull decoded events; input ending
   mid-line yields [Need_more], never a parse error.  [load] is the
   whole-file specialization. *)

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

(* The writer is parameterized over a string sink so the same emitter
   serves [out_channel] recording and in-memory encoding ([to_buffer],
   which the daemon client uses to frame traces for the wire). *)

let emit_class_header emit =
  List.iter
    (fun c ->
      emit (Printf.sprintf "%%class %s" (Event.Class.name c));
      List.iter (fun tag -> emit (Printf.sprintf " %c" tag)) (class_tags c);
      emit "\n")
    Event.Class.all

let write_class_header oc = emit_class_header (output_string oc)
let bool_int b = if b then 1 else 0

(* Streaming hooks: events go straight to the sink, O(1) memory.
   Built class-by-class so the writer is itself a handler composition. *)
let emitter_handler emit =
  let p fmt = Printf.ksprintf emit fmt in
  Handler.make
    ~memory:
      {
        Event.on_read =
          (fun ~addr ~loc ~var ~thread ~time ~locked ->
            p "R %d %d %d %d %d %d\n" addr loc var thread time (bool_int locked));
        on_write =
          (fun ~addr ~loc ~var ~thread ~time ~locked ->
            p "W %d %d %d %d %d %d\n" addr loc var thread time (bool_int locked));
      }
    ~region:
      {
        Event.on_region_enter =
          (fun ~loc ~kind:Event.Loop ~thread ~time -> p "B %d %d %d\n" loc thread time);
        on_region_iter = (fun ~loc ~thread ~time -> p "I %d %d %d\n" loc thread time);
        on_region_exit =
          (fun ~loc ~end_loc ~kind:Event.Loop ~iterations ~thread ~time ->
            p "E %d %d %d %d %d\n" loc end_loc iterations thread time);
      }
    ~frame:
      {
        Event.on_call =
          (fun ~loc ~func ~thread ~time -> p "C %d %d %d %d\n" loc func thread time);
        on_return = (fun ~func ~thread ~time -> p "T %d %d %d\n" func thread time);
        on_thread_end = (fun ~thread -> p "X %d\n" thread);
      }
    ~alloc:
      {
        Event.on_alloc = (fun ~base ~len ~var -> p "A %d %d %d\n" base len var);
        on_free = (fun ~base ~len ~var -> p "F %d %d %d\n" base len var);
      }
    ~sync:
      {
        Event.on_sync =
          (fun ~kind ~obj ~thread ~time ->
            p "Y %d %d %d %d\n" (sync_kind_int kind) obj thread time);
      }
    ()

let recorder_handler oc = emitter_handler (output_string oc)
let recorder oc = Handler.hooks (recorder_handler oc)

let emit_symtab emit (symtab : Symtab.t) =
  Ddp_util.Intern.iter symtab.Symtab.vars (fun id name ->
      emit (Printf.sprintf "%%var %d %s\n" id (String.escaped name)));
  Ddp_util.Intern.iter symtab.Symtab.files (fun id name ->
      emit (Printf.sprintf "%%file %d %s\n" id (String.escaped name)))

let write_symtab oc symtab = emit_symtab (output_string oc) symtab

(* v2 files end with a sentinel, so truncation anywhere — even a cut
   that happens to leave a parseable final line — is always detected. *)
let end_sentinel = "%end"

(* Encode a complete v2 trace into a buffer: what [save] writes to disk,
   as bytes in memory. *)
let to_buffer buf events symtab =
  let emit = Buffer.add_string buf in
  emit magic;
  emit "\n";
  emit_class_header emit;
  Event.replay (Handler.hooks (emitter_handler emit)) events;
  emit_symtab emit symtab;
  emit end_sentinel;
  emit "\n"

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
type recording = { tf : Ddp_util.Tmp_file.t; rec_hooks : Event.hooks; mutable closed : bool }

let start_recording ~path =
  let tf = Ddp_util.Tmp_file.create ~path in
  let oc = Ddp_util.Tmp_file.oc tf in
  output_string oc magic;
  output_char oc '\n';
  write_class_header oc;
  { tf; rec_hooks = recorder oc; closed = false }

let recording_hooks r = r.rec_hooks

let abort_recording r =
  if not r.closed then begin
    r.closed <- true;
    Ddp_util.Tmp_file.abort r.tf
  end

let finish_recording r symtab =
  if r.closed then invalid_arg "Trace_file.finish_recording: already closed";
  let oc = Ddp_util.Tmp_file.oc r.tf in
  write_symtab oc symtab;
  output_string oc end_sentinel;
  output_char oc '\n';
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
  let oc = open_out path in
  (try
     (match version with
     | `V2 ->
       output_string oc magic;
       output_char oc '\n';
       write_class_header oc
     | `V1 ->
       List.iter
         (fun e ->
           match e with
           | Event.Sync _ ->
             invalid_arg "Trace_file.save: version 1 cannot express Sync events"
           | _ -> ())
         events;
       output_string oc magic_v1;
       output_char oc '\n');
     Event.replay (recorder oc) events;
     write_symtab oc symtab;
     (match version with
     | `V2 ->
       output_string oc end_sentinel;
       output_char oc '\n'
     | `V1 -> ())
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

(* -- loading --------------------------------------------------------------- *)

let parse_ints line start =
  String.split_on_char ' ' (String.sub line start (String.length line - start))
  |> List.filter (fun s -> s <> "")
  |> List.map (fun s ->
         match int_of_string_opt s with
         | Some n -> n
         | None -> fail "bad integer %S in line %S" s line)

(* Incremental push decoder.  Bytes go in via [feed] in chunks cut at
   arbitrary boundaries; decoded events come out via [next].  A partial
   line at the end of the fed input is held back (not an error) until
   either more bytes complete it or [eof] declares the input finished —
   at which point the held-back tail is parsed exactly as [input_line]
   would have delivered it (a final line needs no trailing newline).
   Symbol-table and class-header lines update internal state instead of
   producing events; the accumulated {!symtab} is valid once [next]
   returns [Done]. *)
module Stream = struct
  type step = Event of Event.t | Need_more | Done

  type t = {
    mutable cur : string;  (* chunk being scanned *)
    mutable pos : int;  (* cursor into [cur] *)
    chunks : string Queue.t;  (* fed, not yet scanned *)
    partial : Buffer.t;  (* line fragment spanning chunk boundaries *)
    events : Event.t Queue.t;
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

  let create () =
    {
      cur = "";
      pos = 0;
      chunks = Queue.create ();
      partial = Buffer.create 256;
      events = Queue.create ();
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

  (* Pull the next complete line (consuming its '\n'), or — once [eof]
     has been declared — the unterminated tail, exactly as [input_line]
     delivers a final line with no trailing newline.  O(1) amortized per
     byte: each byte is copied at most once into [partial]. *)
  let rec take_line t =
    if t.pos >= String.length t.cur then
      if Queue.is_empty t.chunks then
        if t.at_eof && Buffer.length t.partial > 0 then begin
          let line = Buffer.contents t.partial in
          Buffer.clear t.partial;
          Some line
        end
        else None
      else begin
        t.cur <- Queue.pop t.chunks;
        t.pos <- 0;
        take_line t
      end
    else
      match String.index_from_opt t.cur t.pos '\n' with
      | Some i ->
        check_line_length t (i - t.pos);
        let line =
          if Buffer.length t.partial = 0 then String.sub t.cur t.pos (i - t.pos)
          else begin
            Buffer.add_substring t.partial t.cur t.pos (i - t.pos);
            let l = Buffer.contents t.partial in
            Buffer.clear t.partial;
            l
          end
        in
        t.pos <- i + 1;
        Some line
      | None ->
        check_line_length t (String.length t.cur - t.pos);
        Buffer.add_substring t.partial t.cur t.pos (String.length t.cur - t.pos);
        t.pos <- String.length t.cur;
        take_line t

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

  let push t e = Queue.add e t.events

  let parse_line t line =
    if t.sealed then fail "content after %%end sentinel: %S" line
    else if line = "" then ()
    else if line = end_sentinel then
      if t.version >= 2 then t.sealed <- true
      else fail "end sentinel in a version-1 trace"
    else if line.[0] = '%' then begin
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
    end
    else begin
      let tag = line.[0] in
      let ints = parse_ints line 1 in
      match (tag, ints) with
      | 'R', [ addr; loc; var; thread; time; locked ] ->
        push t (Event.Read { addr; loc; var; thread; time; locked = locked <> 0 })
      | 'W', [ addr; loc; var; thread; time; locked ] ->
        push t (Event.Write { addr; loc; var; thread; time; locked = locked <> 0 })
      | 'B', [ loc; thread; time ] -> push t (Event.Region_enter { loc; thread; time })
      | 'I', [ loc; thread; time ] -> push t (Event.Region_iter { loc; thread; time })
      | 'E', [ loc; end_loc; iterations; thread; time ] ->
        push t (Event.Region_exit { loc; end_loc; iterations; thread; time })
      | 'A', [ base; len; var ] -> push t (Event.Alloc { base; len; var })
      | 'F', [ base; len; var ] -> push t (Event.Free { base; len; var })
      | 'C', [ loc; func; thread; time ] -> push t (Event.Call { loc; func; thread; time })
      | 'T', [ func; thread; time ] -> push t (Event.Return { func; thread; time })
      | 'X', [ thread ] -> push t (Event.Thread_end { thread })
      | 'Y', [ kind; obj; thread; time ] when t.version >= 2 -> (
        match sync_kind_of_int kind with
        | Some kind -> push t (Event.Sync { kind; obj; thread; time })
        | None -> fail "unknown sync kind in line %S" line)
      | _ ->
        if List.mem tag t.skip_tags then () (* declared by an unknown class: skip *)
        else fail "malformed event line %S" line
    end

  let consume_line t line =
    if not t.saw_magic then begin
      if line = magic then t.version <- 2
      else if line = magic_v1 then t.version <- 1
      else fail "bad magic %S (expected %S)" line magic;
      t.saw_magic <- true
    end
    else parse_line t line

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
    if not (Queue.is_empty t.events) then Event (Queue.pop t.events)
    else if t.finished then Done
    else
      match take_line t with
      | Some line ->
        consume_line t line;
        next t
      | None ->
        if not t.at_eof then Need_more
        else begin
          finalize t;
          Done
        end

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
