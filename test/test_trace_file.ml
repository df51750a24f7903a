(* Tests for trace recording and replay. *)

module B = Ddp_minir.Builder
module TF = Ddp_minir.Trace_file

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("ddp_test_" ^ name)

let sample_prog () =
  B.program ~name:"rec"
    ~funcs:[ B.proc "inc" [ "k" ] [ B.store "a" (B.v "k") B.(idx "a" (v "k") +: i 1) ] ]
    [
      B.arr "a" (B.i 8);
      B.for_ "i" (B.i 0) (B.i 8) (fun iv -> [ B.store "a" iv iv ]);
      B.for_ "j" (B.i 0) (B.i 8) (fun jv -> [ B.call_proc "inc" [ jv ] ]);
      B.local "s" (B.idx "a" (B.i 3));
    ]

let test_roundtrip_events () =
  let path = tmp "roundtrip.trace" in
  TF.record ~path (sample_prog ());
  let live, _ = Ddp_minir.Interp.trace (sample_prog ()) in
  let loaded, _ = TF.load ~path in
  Alcotest.(check int) "same length" (List.length live) (List.length loaded);
  Alcotest.(check bool) "identical events" true (live = loaded);
  Sys.remove path

let test_roundtrip_symtab () =
  let path = tmp "symtab.trace" in
  TF.record ~path (sample_prog ());
  let _, symtab = TF.load ~path in
  Alcotest.(check bool) "var names recovered" true
    (Ddp_util.Intern.mem symtab.Ddp_minir.Symtab.vars "a"
    && Ddp_util.Intern.mem symtab.Ddp_minir.Symtab.vars "inc");
  Alcotest.(check string) "file name recovered" "rec"
    (Ddp_minir.Symtab.file_name symtab 1);
  Sys.remove path

let test_replay_into_profiler_matches_live () =
  let path = tmp "replay.trace" in
  TF.record ~path (sample_prog ());
  let events, _ = TF.load ~path in
  let live = Ddp_core.Profiler.profile ~mode:"perfect" (sample_prog ()) in
  let replayed = Ddp_core.Serial_profiler.create_perfect Ddp_core.Config.default in
  Ddp_minir.Event.replay replayed.Ddp_core.Serial_profiler.hooks events;
  Alcotest.(check bool) "same dependences from trace replay" true
    (Ddp_core.Dep_store.Key_set.equal
       (Ddp_core.Dep_store.key_set live.deps)
       (Ddp_core.Dep_store.key_set replayed.Ddp_core.Serial_profiler.deps));
  Sys.remove path

let test_load_errors () =
  let path = tmp "bad.trace" in
  let write s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  write "not a trace\n";
  (match TF.load ~path with
  | exception TF.Parse_error _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  write "ddp-trace 1\nZ 1 2 3\n";
  (match TF.load ~path with
  | exception TF.Parse_error _ -> ()
  | _ -> Alcotest.fail "bad tag accepted");
  write "ddp-trace 1\nR 1 2\n";
  (match TF.load ~path with
  | exception TF.Parse_error _ -> ()
  | _ -> Alcotest.fail "short line accepted");
  Sys.remove path

(* Error paths must surface as Parse_error — never as an uncaught
   Failure/Scanf crash from the guts of the parser. *)
let test_garbage_symtab () =
  let path = tmp "garbage_symtab.trace" in
  let write s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  write "ddp-trace 1\n%var notanint foo\n";
  (match TF.load ~path with
  | exception TF.Parse_error _ -> ()
  | _ -> Alcotest.fail "non-integer symtab id accepted");
  write "ddp-trace 1\n%var 0 bad\\qescape\n";
  (match TF.load ~path with
  | exception TF.Parse_error _ -> ()
  | _ -> Alcotest.fail "invalid escape sequence accepted");
  write "ddp-trace 1\n%var 5 foo\n";
  (match TF.load ~path with
  | exception TF.Parse_error _ -> ()
  | _ -> Alcotest.fail "non-dense symtab ids accepted");
  Sys.remove path

(* Chop a recorded trace mid-line: loading must raise Parse_error, not
   return a silently short event list or crash. *)
let truncated_trace () =
  let path = tmp "truncated.trace" in
  TF.record ~path (sample_prog ());
  let full = In_channel.with_open_bin path In_channel.input_all in
  let cut = String.length full - (String.length full / 3) in
  (* land inside a line, not on a boundary *)
  let cut = if full.[cut] = '\n' then cut - 1 else cut in
  Out_channel.with_open_bin path (fun oc -> output_string oc (String.sub full 0 cut));
  path

let test_truncated_file () =
  let path = truncated_trace () in
  (match TF.load ~path with
  | exception TF.Parse_error _ -> ()
  | _ -> Alcotest.fail "truncated trace accepted");
  Sys.remove path

(* The same truncated file through the replay path of EVERY registered
   engine: the Parse_error must propagate cleanly (no hang, no leaked
   worker domains — the parallel engine spawns domains in create). *)
let test_truncated_replay_all_engines () =
  let path = truncated_trace () in
  List.iter
    (fun mode ->
      match
        Ddp_core.Profiler.run ~mode ~config:Ddp_core.Config.default
          (Ddp_core.Source.of_trace ~path)
      with
      | exception TF.Parse_error _ -> ()
      | _ -> Alcotest.fail (mode ^ ": truncated trace accepted"))
    [ "serial"; "perfect"; "parallel"; "mt"; "shadow"; "hashtable"; "stride" ];
  Sys.remove path

let test_abort_recording_idempotent () =
  let path = tmp "abort.trace" in
  if Sys.file_exists path then Sys.remove path;
  let r = TF.start_recording ~path in
  Alcotest.(check bool) "tmp file opened" true (Sys.file_exists (path ^ ".tmp"));
  TF.abort_recording r;
  TF.abort_recording r;
  (* closing twice is fine; finishing after closing is a caller bug *)
  (match TF.finish_recording r (Ddp_minir.Symtab.create ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "finish after abort accepted");
  (* an aborted recording publishes nothing and cleans up its temp file *)
  Alcotest.(check bool) "nothing published" false (Sys.file_exists path);
  Alcotest.(check bool) "temp file removed" false (Sys.file_exists (path ^ ".tmp"))

let test_recording_published_atomically () =
  (* The trace appears at [path] only on a successful finish: while the
     recording is in flight the data lives in [path ^ ".tmp"], so a crash
     mid-run never leaves a truncated file for a later load to reject. *)
  let path = tmp "atomic.trace" in
  if Sys.file_exists path then Sys.remove path;
  let r = TF.start_recording ~path in
  let symtab = Ddp_minir.Symtab.create () in
  let (_ : Ddp_minir.Interp.stats) =
    Ddp_minir.Interp.run ~hooks:(TF.recording_hooks r) ~symtab (sample_prog ())
  in
  Alcotest.(check bool) "not visible before finish" false (Sys.file_exists path);
  TF.finish_recording r symtab;
  Alcotest.(check bool) "visible after finish" true (Sys.file_exists path);
  Alcotest.(check bool) "temp file renamed away" false (Sys.file_exists (path ^ ".tmp"));
  let live, _ = Ddp_minir.Interp.trace (sample_prog ()) in
  let loaded, _ = TF.load ~path in
  Alcotest.(check bool) "published trace replays" true (live = loaded);
  Sys.remove path

let test_escaped_names () =
  (* Variable names with spaces/backslashes survive the symtab encoding.
     MiniIR names are free-form strings, so the escaping must hold. *)
  let prog =
    B.program ~name:"odd name \\ here" [ B.local "x y\\z" (B.i 1); B.assert_ B.(v "x y\\z" =: i 1) ]
  in
  let path = tmp "escape.trace" in
  TF.record ~path prog;
  let _, symtab = TF.load ~path in
  Alcotest.(check bool) "escaped var recovered" true
    (Ddp_util.Intern.mem symtab.Ddp_minir.Symtab.vars "x y\\z");
  Sys.remove path

(* -- incremental stream decoder --------------------------------------------- *)

let encode_sample () =
  let symtab = Ddp_minir.Symtab.create () in
  let events, _ = Ddp_minir.Interp.trace ~symtab (sample_prog ()) in
  let buf = Buffer.create 4096 in
  TF.to_buffer buf events symtab;
  (Buffer.contents buf, events)

let drain st =
  let rec go acc =
    match TF.Stream.next st with
    | TF.Stream.Event e -> go (e :: acc)
    | TF.Stream.Need_more | TF.Stream.Done -> List.rev acc
  in
  go []

(* The satellite contract: a v2 trace split into two chunks at EVERY
   byte offset decodes to the same event list — a mid-line cut is a
   typed [Need_more], never a parse error. *)
let test_stream_every_split_point () =
  let bytes, expected = encode_sample () in
  let n = String.length bytes in
  for cut = 0 to n do
    let st = TF.Stream.create () in
    TF.Stream.feed st (String.sub bytes 0 cut);
    let head = drain st in
    TF.Stream.feed st (String.sub bytes cut (n - cut));
    TF.Stream.eof st;
    let tail = drain st in
    if head @ tail <> expected then
      Alcotest.failf "split at byte %d/%d corrupted the event stream" cut n;
    if TF.Stream.next st <> TF.Stream.Done then
      Alcotest.failf "split at byte %d/%d: decoder not Done after eof" cut n;
    if not (TF.Stream.is_sealed st) then Alcotest.failf "split at byte %d/%d: seal lost" cut n
  done

let test_stream_tiny_chunks () =
  let bytes, expected = encode_sample () in
  List.iter
    (fun k ->
      let st = TF.Stream.create () in
      let acc = ref [] in
      let i = ref 0 in
      while !i < String.length bytes do
        let len = min k (String.length bytes - !i) in
        TF.Stream.feed st (String.sub bytes !i len);
        i := !i + len;
        acc := !acc @ drain st
      done;
      TF.Stream.eof st;
      acc := !acc @ drain st;
      Alcotest.(check bool)
        (Printf.sprintf "identical events at chunk size %d" k)
        true (!acc = expected);
      (* the symtab survives re-chunking too *)
      Alcotest.(check bool) "symtab recovered" true
        (Ddp_util.Intern.mem (TF.Stream.symtab st).Ddp_minir.Symtab.vars "a"))
    [ 1; 2; 3; 7; 64; 4096 ]

let test_stream_mid_line_is_need_more () =
  let bytes, _ = encode_sample () in
  let st = TF.Stream.create () in
  TF.Stream.feed st (String.sub bytes 0 4) (* inside the magic line *);
  match TF.Stream.next st with
  | TF.Stream.Need_more -> ()
  | TF.Stream.Event _ -> Alcotest.fail "event decoded from a partial magic line"
  | TF.Stream.Done -> Alcotest.fail "Done before the magic line completed"

let test_stream_truncated_fails_at_eof () =
  let bytes, _ = encode_sample () in
  let st = TF.Stream.create () in
  TF.Stream.feed st (String.sub bytes 0 (String.length bytes * 2 / 3));
  ignore (drain st : Ddp_minir.Event.t list);
  TF.Stream.eof st;
  match drain st with
  | exception TF.Parse_error _ -> ()
  | _ -> Alcotest.fail "truncated trace (no %end seal) accepted"

let test_stream_garbage_still_errors () =
  let bytes, _ = encode_sample () in
  let header = String.sub bytes 0 (String.index bytes '\n' + 1) in
  let st = TF.Stream.create () in
  TF.Stream.feed st header;
  TF.Stream.feed st "!! certainly not a trace line !!\n";
  match drain st with
  | exception TF.Parse_error _ -> ()
  | _ -> Alcotest.fail "garbage line slipped through the incremental decoder"

let test_stream_feed_after_eof () =
  let bytes, _ = encode_sample () in
  let st = TF.Stream.create () in
  TF.Stream.feed st bytes;
  TF.Stream.eof st;
  ignore (drain st : Ddp_minir.Event.t list);
  match TF.Stream.feed st "more" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "feed accepted after eof"

(* A peer that never sends a newline must hit the line cap, not grow
   the decoder's buffer without bound. *)
let test_stream_line_cap () =
  let st = TF.Stream.create () in
  TF.Stream.feed st "ddp-trace 2\n";
  let piece = String.make (64 * 1024) 'R' in
  let outcome = ref "Need_more forever" in
  (try
     for _ = 1 to 32 (* 2 MiB *) do
       TF.Stream.feed st piece;
       match TF.Stream.next st with
       | TF.Stream.Need_more -> ()
       | TF.Stream.Event _ | TF.Stream.Done -> failwith "decoded a newline-free line"
     done
   with TF.Parse_error _ -> outcome := "Parse_error");
  Alcotest.(check string) "cap enforced" "Parse_error" !outcome

(* -- the codec against the reference ---------------------------------------- *)

module EG = Ddp_testkit.Event_gen
module Event = Ddp_minir.Event

let encode_with to_buffer events symtab =
  let buf = Buffer.create 4096 in
  to_buffer buf events symtab;
  Buffer.contents buf

(* An event's integer fields in writer order, and the inverse. *)
let int_fields = function
  | Event.Read { addr; loc; var; thread; time; _ } | Event.Write { addr; loc; var; thread; time; _ }
    ->
    [ addr; loc; var; thread; time ]
  | Event.Region_enter { loc; thread; time } | Event.Region_iter { loc; thread; time } ->
    [ loc; thread; time ]
  | Event.Region_exit { loc; end_loc; iterations; thread; time } ->
    [ loc; end_loc; iterations; thread; time ]
  | Event.Alloc { base; len; var } | Event.Free { base; len; var } -> [ base; len; var ]
  | Event.Call { loc; func; thread; time } -> [ loc; func; thread; time ]
  | Event.Return { func; thread; time } -> [ func; thread; time ]
  | Event.Thread_end { thread } -> [ thread ]
  | Event.Sync { obj; thread; time; _ } -> [ obj; thread; time ]

let with_int_fields e fs =
  match (e, fs) with
  | Event.Read r, [ addr; loc; var; thread; time ] ->
    Event.Read { r with addr; loc; var; thread; time }
  | Event.Write r, [ addr; loc; var; thread; time ] ->
    Event.Write { r with addr; loc; var; thread; time }
  | Event.Region_enter _, [ loc; thread; time ] -> Event.Region_enter { loc; thread; time }
  | Event.Region_iter _, [ loc; thread; time ] -> Event.Region_iter { loc; thread; time }
  | Event.Region_exit _, [ loc; end_loc; iterations; thread; time ] ->
    Event.Region_exit { loc; end_loc; iterations; thread; time }
  | Event.Alloc _, [ base; len; var ] -> Event.Alloc { base; len; var }
  | Event.Free _, [ base; len; var ] -> Event.Free { base; len; var }
  | Event.Call _, [ loc; func; thread; time ] -> Event.Call { loc; func; thread; time }
  | Event.Return _, [ func; thread; time ] -> Event.Return { func; thread; time }
  | Event.Thread_end _, [ thread ] -> Event.Thread_end { thread }
  | Event.Sync s, [ obj; thread; time ] -> Event.Sync { s with obj; thread; time }
  | _ -> invalid_arg "with_int_fields"

let edge_values = [ 0; 9; 10; -1; -10; max_int; min_int ]

(* One event of every constructor with each integer field set in turn to
   each edge value. *)
let edge_events =
  List.concat_map
    (fun e ->
      let fs = int_fields e in
      List.concat
        (List.mapi
           (fun k _ ->
             List.map
               (fun v -> with_int_fields e (List.mapi (fun j f -> if j = k then v else f) fs))
               edge_values)
           fs))
    EG.one_of_each

let symtab_contents (st : Ddp_minir.Symtab.t) =
  let entries intern =
    let acc = ref [] in
    Ddp_util.Intern.iter intern (fun id name -> acc := (id, name) :: !acc);
    List.rev !acc
  in
  (entries st.Ddp_minir.Symtab.vars, entries st.Ddp_minir.Symtab.files)

(* Feed [chunks], pulling events after each, then declare eof: the
   events and symbol table, or the parse error. *)
let outcome ~create ~feed ~eof ~pull ~symtab chunks =
  match
    let d = create () in
    let acc = ref [] in
    let rec drain () =
      match pull d with
      | Some e ->
        acc := e :: !acc;
        drain ()
      | None -> ()
    in
    List.iter
      (fun c ->
        feed d c;
        drain ())
      chunks;
    eof d;
    drain ();
    (List.rev !acc, symtab_contents (symtab d))
  with
  | r -> Ok r
  | exception TF.Parse_error msg -> Error msg

let decode_new =
  outcome ~create:TF.Stream.create ~feed:TF.Stream.feed ~eof:TF.Stream.eof
    ~symtab:TF.Stream.symtab ~pull:(fun d ->
      match TF.Stream.next d with TF.Stream.Event e -> Some e | _ -> None)

let decode_ref =
  let module S = Trace_ref.Stream in
  outcome ~create:S.create ~feed:S.feed ~eof:S.eof ~symtab:S.symtab ~pull:(fun d ->
      match S.next d with S.Event e -> Some e | _ -> None)

let prop_writer_matches_reference =
  QCheck.Test.make ~name:"to_buffer == reference writer" ~count:200 EG.arbitrary_events
    (fun events ->
      let symtab = EG.symtab () in
      encode_with TF.to_buffer events symtab = encode_with Trace_ref.to_buffer events symtab)

let test_writer_edge_values () =
  let symtab = EG.symtab () in
  List.iter
    (fun e ->
      let mine = encode_with TF.to_buffer [ e ] symtab in
      Alcotest.(check string)
        (Event.to_string e)
        (encode_with Trace_ref.to_buffer [ e ] symtab)
        mine;
      match decode_new [ mine ] with
      | Ok ([ e' ], _) when e' = e -> ()
      | _ -> Alcotest.failf "%s does not decode back" (Event.to_string e))
    edge_events

(* [save], a recording of the same stream and [to_buffer] all write the
   same bytes, on a stream long enough that the file writers spill their
   buffers several times. *)
let test_file_writers_agree () =
  let symtab = EG.symtab () in
  let events =
    List.init 20_000 (fun i ->
        let e = List.nth EG.one_of_each (i mod List.length EG.one_of_each) in
        with_int_fields e (List.map (fun f -> f + (i * 7919)) (int_fields e)))
  in
  let expected = encode_with Trace_ref.to_buffer events symtab in
  Alcotest.(check bool) "spans several 64 KiB flushes" true (String.length expected > 4 * 65536);
  Alcotest.(check string) "to_buffer" expected (encode_with TF.to_buffer events symtab);
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let saved = tmp "writers_save.trace" and recorded = tmp "writers_record.trace" in
  TF.save ~path:saved events symtab;
  let r = TF.start_recording ~path:recorded in
  Event.replay (TF.recording_hooks r) events;
  TF.finish_recording r symtab;
  Alcotest.(check string) "save" expected (read saved);
  Alcotest.(check string) "recording" expected (read recorded);
  Sys.remove saved;
  Sys.remove recorded

(* -- reader totality ----------------------------------------------------------- *)

let is_decimal tok =
  let body =
    if String.starts_with ~prefix:"-" tok then String.sub tok 1 (String.length tok - 1) else tok
  in
  body <> "" && String.for_all (fun c -> c >= '0' && c <= '9') body

(* The documented narrowing: an event line carries a field that
   [int_of_string] reads but that is not plain decimal. *)
let has_non_decimal_int bytes =
  match String.split_on_char '\n' bytes with
  | [] -> false
  | _magic :: lines ->
    List.exists
      (fun line ->
        line <> ""
        && line.[0] <> '%'
        && String.split_on_char ' ' (String.sub line 1 (String.length line - 1))
           |> List.exists (fun tok ->
                  tok <> "" && (not (is_decimal tok)) && int_of_string_opt tok <> None))
      lines

let cut_at cuts s =
  let n = String.length s in
  let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) in
  let rec go prev = function
    | [] -> [ String.sub s prev (n - prev) ]
    | c :: rest -> String.sub s prev (c - prev) :: go c rest
  in
  go 0 cuts

(* Inputs at the edges of the event-line grammar: field tokens at the
   edges of the 63-bit range and of the spelling rules (in an [X] line),
   then whole lines.  The reader agrees with the reference on each,
   except that it refuses the non-decimal spellings. *)
let test_edge_lines () =
  let v2 = "ddp-trace 2\n" in
  let sealed = v2 ^ "X 0\n%end\n" in
  let agree ?(narrowed = false) input =
    let expected = if narrowed then Error "narrowed" else decode_ref [ input ] in
    match (expected, decode_new [ input ]) with
    | Ok r, Ok n when r = n -> ()
    | Error _, Error _ -> ()
    | _ -> Alcotest.failf "reader disagrees with the reference on %S" input
  in
  List.iter
    (fun tok -> agree ~narrowed:(not (is_decimal tok)) (v2 ^ "X " ^ tok ^ "\n%end\n"))
    [
      "0"; "-0"; "007"; "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
      "-4611686018427387905"; "46116860184273879030"; "99999999999999999999"; "-"; "--1"; "1-";
      "1 2"; "1\t"; ""; "+1"; "0x1f"; "0o7"; "0b1"; "0u5"; "1_0";
    ];
  List.iter agree
    [
      sealed ^ "R 1 2 3 4 5 0\n";
      sealed ^ "\n";
      v2 ^ "R1 2 3 4 5 0\n%end\n";
      v2 ^ "R 1 2 3 4 5 0   \n%end\n";
      v2 ^ " R 1 2 3 4 5 0\n%end\n";
      v2 ^ "R 1 2 3 4 5\n%end\n";
      v2 ^ "%class foo Z\nZ 1 2 3 4 5 6 7 8 9\nZ\n%end\n";
      v2 ^ "%class foo Z\nZ 1 x\n%end\n";
      v2 ^ "Y 4 1 0 0\n%end\n";
      "ddp-trace 1\nY 0 1 0 0\n";
      "ddp-trace 1\nW 1 2 3 4 5 1";
    ]

open QCheck.Gen

(* Valid encodings: generated streams, sometimes with edge-valued events
   mixed in so that mutations land next to the 63-bit limits. *)
let gen_encoding =
  map2
    (fun events extra -> encode_with Trace_ref.to_buffer (events @ extra) (EG.symtab ()))
    EG.gen_events
    (list_size (int_range 0 3) (oneofl edge_events))

let gen_pos s = int_bound (max 0 (String.length s - 1))

let gen_line_start s =
  oneofl (0 :: List.filter_map (fun i -> if s.[i] = '\n' then Some (i + 1) else None)
                 (List.init (String.length s) Fun.id))

let mutation_bytes =
  "0123456789 -+_xobue\n%RWBIEAFCTXY\t\000\255"

let gen_mutation s =
  let n = String.length s in
  if n = 0 then return s
  else
    frequency
      [
        ( 3,
          (* byte flips *)
          map
            (fun flips ->
              let b = Bytes.of_string s in
              List.iter (fun (i, c) -> Bytes.set b (i mod n) c) flips;
              Bytes.to_string b)
            (list_size (int_range 1 3)
               (pair (int_bound (n - 1))
                  (frequency
                     [ (4, oneofl (List.of_seq (String.to_seq mutation_bytes))); (1, char) ]))) );
        (2, map (fun i -> String.sub s 0 i) (int_bound n) (* truncation *));
        ( 2,
          (* splice with a second trace, often at line starts, sometimes
             after the whole first trace (content past its seal) *)
          gen_encoding >>= fun other ->
          map2
            (fun i j -> String.sub s 0 i ^ String.sub other j (String.length other - j))
            (frequency [ (2, int_bound n); (2, gen_line_start s); (1, return n) ])
            (frequency [ (1, int_bound (String.length other)); (1, gen_line_start other) ]) );
        ( 2,
          (* digit -> letter swaps *)
          map
            (fun swaps ->
              let b = Bytes.of_string s in
              List.iter
                (fun (i, c) ->
                  (* the first digit at or after [i], wrapping around *)
                  let rec find k =
                    let j = (i + k) mod n in
                    if k < n then
                      if Bytes.get b j >= '0' && Bytes.get b j <= '9' then Bytes.set b j c
                      else find (k + 1)
                  in
                  find 0)
                swaps;
              Bytes.to_string b)
            (list_size (int_range 1 2)
               (pair (int_bound (n - 1)) (oneofl [ 'x'; 'o'; 'b'; 'u'; 'e'; '_'; 'a'; 'f' ]))) );
        ( 2,
          (* runs of spaces inserted anywhere *)
          map2
            (fun i k -> String.sub s 0 i ^ String.make k ' ' ^ String.sub s i (n - i))
            (int_bound n) (int_range 1 4) );
      ]

(* A mutated encoding, and the chunks it is fed in. *)
let gen_mutated =
  gen_encoding >>= gen_mutation >>= fun s ->
  map (fun cuts -> (s, cut_at cuts s)) (list_size (int_range 0 4) (gen_pos s))

let prop_reader_total =
  QCheck.Test.make ~name:"reader total: reference or Parse_error" ~count:500
    (QCheck.make ~print:(fun (s, _) -> String.escaped s) gen_mutated)
    (fun (s, chunks) ->
      match (decode_ref chunks, decode_new chunks) with
      | Ok r, Ok n -> r = n
      | Error _, Error _ -> true
      | Error _, Ok _ -> false
      | Ok _, Error msg ->
        (* only the documented narrowing may tell them apart *)
        String.starts_with ~prefix:"bad integer" msg && has_non_decimal_int s)

(* Runs of spaces in a valid trace's event lines — none or more after
   the tag, one or more between fields, none or more at the end: both
   readers see the events and symbols of the unpadded trace. *)
let gen_padded =
  gen_encoding >>= fun s ->
  let lines = String.split_on_char '\n' s in
  let pad line =
    if line = "" || line.[0] = '%' || String.starts_with ~prefix:"ddp-trace" line then return line
    else
      let pieces = String.split_on_char ' ' line in
      map
        (fun runs ->
          String.concat ""
            (List.map2
               (fun (i, piece) run ->
                 if i = 0 then piece else String.make (if i >= 2 then run + 1 else run) ' ' ^ piece)
               (List.mapi (fun i p -> (i, p)) pieces)
               (List.tl runs))
          ^ String.make (List.hd runs) ' ')
        (list_repeat (List.length pieces + 1) (int_range 0 3))
  in
  flatten_l (List.map pad lines) >>= fun padded ->
  let p = String.concat "\n" padded in
  map (fun cuts -> (s, cut_at cuts p)) (list_size (int_range 0 4) (gen_pos p))

let prop_padded_decodes_identically =
  QCheck.Test.make ~name:"runs of spaces decode identically" ~count:200
    (QCheck.make ~print:(fun (s, _) -> String.escaped s) gen_padded)
    (fun (s, chunks) ->
      let plain = decode_new [ s ] in
      Result.is_ok plain && decode_new chunks = plain && decode_ref chunks = plain)

let suite =
  [
    Alcotest.test_case "roundtrip events" `Quick test_roundtrip_events;
    Alcotest.test_case "roundtrip symtab" `Quick test_roundtrip_symtab;
    Alcotest.test_case "replay into profiler" `Quick test_replay_into_profiler_matches_live;
    Alcotest.test_case "load errors" `Quick test_load_errors;
    Alcotest.test_case "garbage symtab lines" `Quick test_garbage_symtab;
    Alcotest.test_case "truncated file" `Quick test_truncated_file;
    Alcotest.test_case "truncated replay fails cleanly, all engines" `Quick
      test_truncated_replay_all_engines;
    Alcotest.test_case "abort_recording is idempotent" `Quick test_abort_recording_idempotent;
    Alcotest.test_case "recording published atomically" `Quick
      test_recording_published_atomically;
    Alcotest.test_case "escaped names" `Quick test_escaped_names;
    Alcotest.test_case "stream: every split point" `Quick test_stream_every_split_point;
    Alcotest.test_case "stream: tiny chunks" `Quick test_stream_tiny_chunks;
    Alcotest.test_case "stream: mid-line is Need_more" `Quick test_stream_mid_line_is_need_more;
    Alcotest.test_case "stream: truncation fails at eof" `Quick test_stream_truncated_fails_at_eof;
    Alcotest.test_case "stream: garbage still errors" `Quick test_stream_garbage_still_errors;
    Alcotest.test_case "stream: feed after eof" `Quick test_stream_feed_after_eof;
    Alcotest.test_case "stream: line length capped" `Quick test_stream_line_cap;
    Test_seed.to_alcotest prop_writer_matches_reference;
    Alcotest.test_case "writer: edge values == reference" `Quick test_writer_edge_values;
    Alcotest.test_case "writer: save == recording == to_buffer" `Quick test_file_writers_agree;
    Alcotest.test_case "reader: edge lines vs reference" `Quick test_edge_lines;
    Test_seed.to_alcotest prop_reader_total;
    Test_seed.to_alcotest prop_padded_decodes_identically;
  ]
