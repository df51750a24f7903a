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
  ]
