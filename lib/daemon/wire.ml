(* ddpd-wire/1 framing: length-prefixed frames over a Unix-domain
   stream socket.  Deliberately boring — all robustness decisions
   (caps, typed errors, EOF-vs-cut distinction) live here so the
   session layer above never sees a raw byte. *)

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

let frame_char = function
  | Hello -> 'H'
  | Data -> 'D'
  | Fin -> 'F'
  | Status_req -> 'S'
  | Admit -> 'A'
  | Busy -> 'B'
  | Err -> 'E'
  | Report -> 'R'
  | Status_reply -> 'T'

let frame_of_char = function
  | 'H' -> Some Hello
  | 'D' -> Some Data
  | 'F' -> Some Fin
  | 'S' -> Some Status_req
  | 'A' -> Some Admit
  | 'B' -> Some Busy
  | 'E' -> Some Err
  | 'R' -> Some Report
  | 'T' -> Some Status_reply
  | _ -> None

let frame_name = function
  | Hello -> "HELLO"
  | Data -> "DATA"
  | Fin -> "FIN"
  | Status_req -> "STATUS"
  | Admit -> "ADMIT"
  | Busy -> "BUSY"
  | Err -> "ERR"
  | Report -> "REPORT"
  | Status_reply -> "STATUS-REPLY"

exception Protocol_error of string
exception Timeout

let fail fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

(* Traces are streamed as many small DATA frames, so a single frame
   never needs to be huge; the cap turns a corrupt length prefix into a
   typed error instead of a giant allocation. *)
let max_payload = 8 * 1024 * 1024

(* [<len:4 BE><type:1>] in front of every payload. *)
let header_bytes = 5

let set_header b ty n =
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.set b 4 (frame_char ty)

let write_all fd b len =
  let rec push off =
    if off < len then begin
      let w = Unix.write fd b off (len - off) in
      push (off + w)
    end
  in
  push 0

let write_frame fd ty payload =
  let n = String.length payload in
  if n > max_payload then invalid_arg "Wire.write_frame: payload too large";
  let b = Bytes.create (header_bytes + n) in
  set_header b ty n;
  Bytes.blit_string payload 0 b header_bytes n;
  write_all fd b (header_bytes + n)

(* One frame buffer serves the whole stream: each payload is copied
   once, straight out of [buf], behind a rewritten header. *)
let write_data_frames fd ~chunk_bytes buf =
  let total = Buffer.length buf in
  let chunk = max 1 (min chunk_bytes max_payload) in
  let frame = Bytes.create (header_bytes + min chunk total) in
  let off = ref 0 in
  while !off < total do
    let n = min chunk (total - !off) in
    set_header frame Data n;
    Buffer.blit buf !off frame header_bytes n;
    write_all fd frame (header_bytes + n);
    off := !off + n
  done

(* Read exactly [n] bytes, waiting on [deadline] (absolute wall-clock)
   before every chunk.  [allow_eof] permits clean EOF only before the
   first byte — EOF mid-frame is a cut, not a close. *)
let read_exact ?deadline ~allow_eof fd n =
  let b = Bytes.create n in
  let rec pull off =
    if off >= n then Some b
    else begin
      (match deadline with
      | None -> ()
      | Some d ->
        let rec wait () =
          let left = d -. Unix.gettimeofday () in
          if left <= 0.0 then raise Timeout;
          match Unix.select [ fd ] [] [] left with
          | [], _, _ -> raise Timeout
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        in
        wait ());
      match Unix.read fd b off (n - off) with
      | 0 -> if off = 0 && allow_eof then None else fail "connection cut mid-frame"
      | r -> pull (off + r)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pull off
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        if off = 0 && allow_eof then None else fail "connection reset mid-frame"
    end
  in
  pull 0

let read_frame ?deadline fd =
  match read_exact ?deadline ~allow_eof:true fd 5 with
  | None -> None
  | Some hdr ->
    let len =
      (Char.code (Bytes.get hdr 0) lsl 24)
      lor (Char.code (Bytes.get hdr 1) lsl 16)
      lor (Char.code (Bytes.get hdr 2) lsl 8)
      lor Char.code (Bytes.get hdr 3)
    in
    if len > max_payload then fail "frame length %d exceeds cap %d" len max_payload;
    let ty =
      match frame_of_char (Bytes.get hdr 4) with
      | Some ty -> ty
      | None -> fail "unknown frame type %C" (Bytes.get hdr 4)
    in
    let payload =
      if len = 0 then ""
      else
        match read_exact ?deadline ~allow_eof:false fd len with
        | Some b -> Bytes.unsafe_to_string b
        | None -> assert false
    in
    Some (ty, payload)

(* -- key-value payloads ---------------------------------------------------- *)

let kv_encode kvs =
  let b = Buffer.create 64 in
  List.iter
    (fun (k, v) ->
      if String.contains k '=' || String.contains k '\n' || String.contains v '\n' then
        invalid_arg "Wire.kv_encode: key/value with '=' or newline";
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b v;
      Buffer.add_char b '\n')
    kvs;
  Buffer.contents b

let kv_decode s =
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let kvs =
    List.map
      (fun line ->
        match String.index_opt line '=' with
        | None -> fail "bad key-value line %S" line
        | Some i ->
          (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1)))
      lines
  in
  List.iteri
    (fun i (k, _) ->
      List.iteri (fun j (k', _) -> if i < j && k = k' then fail "repeated key %S" k) kvs)
    kvs;
  kvs

let kv_get kvs k = List.assoc_opt k kvs
