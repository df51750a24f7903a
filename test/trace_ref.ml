(* The trace-v2 codec as it was before the buffered writer and the
   in-place reader in Ddp_minir.Trace_file, its logic unchanged, kept as
   the reference the property tests in test_trace_file.ml hold the
   production codec to.  The writer prints every line with
   [Printf.ksprintf]; the reader copies each line out with [String.sub]
   and splits it with [split_on_char] and [int_of_string_opt], so it
   accepts every integer spelling OCaml does ([0x1f], [+3], [1_000]).
   Errors raise the production [Parse_error]. *)

module Event = Ddp_minir.Event
module Handler = Ddp_minir.Handler
module Symtab = Ddp_minir.Symtab

let magic_v1 = "ddp-trace 1"
let magic = "ddp-trace 2"
let fail fmt = Printf.ksprintf (fun s -> raise (Ddp_minir.Trace_file.Parse_error s)) fmt

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

let emit_class_header emit =
  List.iter
    (fun c ->
      emit (Printf.sprintf "%%class %s" (Event.Class.name c));
      List.iter (fun tag -> emit (Printf.sprintf " %c" tag)) (class_tags c);
      emit "\n")
    Event.Class.all

let bool_int b = if b then 1 else 0

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

let emit_symtab emit (symtab : Symtab.t) =
  Ddp_util.Intern.iter symtab.Symtab.vars (fun id name ->
      emit (Printf.sprintf "%%var %d %s\n" id (String.escaped name)));
  Ddp_util.Intern.iter symtab.Symtab.files (fun id name ->
      emit (Printf.sprintf "%%file %d %s\n" id (String.escaped name)))

let end_sentinel = "%end"

let to_buffer buf events symtab =
  let emit = Buffer.add_string buf in
  emit magic;
  emit "\n";
  emit_class_header emit;
  Event.replay (Handler.hooks (emitter_handler emit)) events;
  emit_symtab emit symtab;
  emit end_sentinel;
  emit "\n"

(* -- reading --------------------------------------------------------------- *)

let parse_ints line start =
  String.split_on_char ' ' (String.sub line start (String.length line - start))
  |> List.filter (fun s -> s <> "")
  |> List.map (fun s ->
         match int_of_string_opt s with
         | Some n -> n
         | None -> fail "bad integer %S in line %S" s line)

module Stream = struct
  type step = Event of Event.t | Need_more | Done

  type t = {
    mutable cur : string;
    mutable pos : int;
    chunks : string Queue.t;
    partial : Buffer.t;
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
  let max_line_bytes = 1 lsl 20

  let check_line_length t n =
    if Buffer.length t.partial + n > max_line_bytes then
      fail "line longer than %d bytes" max_line_bytes

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
        if List.mem tag t.skip_tags then ()
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
end
