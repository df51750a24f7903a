(* Textual dependence report in the format of the paper's Fig. 1 (serial)
   and Fig. 3 (parallel):

     1:60 BGN loop
     1:60 NOM {RAW 1:60|i} {WAR 1:60|i} {INIT *}
     1:63 NOM {RAW 1:59|temp1} {RAW 1:67|temp1}
     1:74 END loop 1200

   With [show_threads], sinks are printed "4:58|2" and sources carry the
   thread id ("{WAR 4:77|2|iter}").

   Rendering is one sort and one walk.  Each dependence becomes two
   unboxed int keys whose lexicographic order is the print order:

     sink key  the sink payload (location, variable, thread); with
               [show_threads], the same fields as (location, thread,
               variable), so each "loc|thread" sink line is contiguous
     dep key   kind rank (2 bits) . source payload (54) . race (1),
               i.e. [Dep.compare]'s order after the sink

   An index array sorted by the key pair is then walked once, merging the
   sink lines with the loop begin/end lines in location order and
   appending every number to one pre-sized buffer as digits, so a render
   allocates little beyond the keys and the output. *)

module Loc = Ddp_minir.Loc
module Loc_map = Map.Make (Int)

let deps_per_line = 4
let threads = Payload.max_thread + 1
let vars = Payload.max_var + 1

let sink_key ~show_threads p =
  if show_threads then (((Payload.loc p * threads) + Payload.thread p) * vars) + Payload.var p
  else p

(* The (location, thread) a sink key prints as; thread 0 without
   [show_threads], where one line holds every thread. *)
let sink_line ~show_threads k =
  if show_threads then k / vars else Payload.loc k * threads

let kind_rank : Dep.kind -> int = function RAW -> 0 | WAR -> 1 | WAW -> 2 | INIT -> 3
let kind_names = [| "RAW"; "WAR"; "WAW"; "INIT" |]
let dep_key (d : Dep.t) = (kind_rank d.kind lsl 55) lor (d.src lsl 1) lor Bool.to_int d.race

(* Non-negative ints only: locations, thread ids, iteration counts. *)
let rec add_int buf n =
  if n >= 10 then add_int buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_loc buf loc =
  if Loc.is_none loc then Buffer.add_char buf '*'
  else begin
    add_int buf (Loc.file loc);
    Buffer.add_char buf ':';
    add_int buf (Loc.line loc)
  end

let add_dep buf ~show_threads ~var_name k =
  let kind = k lsr 55 in
  if kind = kind_rank INIT then Buffer.add_string buf "{INIT *}"
  else begin
    let src = (k lsr 1) land ((1 lsl 54) - 1) in
    Buffer.add_char buf '{';
    Buffer.add_string buf kind_names.(kind);
    if k land 1 = 1 then Buffer.add_char buf '?';
    Buffer.add_char buf ' ';
    add_loc buf (Payload.loc src);
    Buffer.add_char buf '|';
    if show_threads then begin
      add_int buf (Payload.thread src);
      Buffer.add_char buf '|'
    end;
    Buffer.add_string buf (var_name (Payload.var src));
    Buffer.add_char buf '}'
  end

(* Loop marks by location: (begins here, iterations of a loop ending
   here).  Two loops ending on one line keep the one folded last. *)
let loop_marks regions =
  let set l f acc =
    Loc_map.update l (fun m -> Some (f (Option.value m ~default:(false, None)))) acc
  in
  Region.fold regions
    (fun loc info acc ->
      acc
      |> set loc (fun (_, e) -> (true, e))
      |> set info.Region.end_loc (fun (b, _) -> (b, Some info.Region.iterations)))
    Loc_map.empty

let render ?(show_threads = false) ?(health = Health.Complete) ~var_name ~(deps : Dep_store.t)
    ~(regions : Region.t) () =
  let n = Dep_store.distinct deps in
  let sinks = Array.make n 0 and keys = Array.make n 0 in
  let i = ref 0 in
  Dep_store.iter deps (fun d _ ->
      sinks.(!i) <- sink_key ~show_threads d.Dep.sink;
      keys.(!i) <- dep_key d;
      incr i);
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun a b ->
      let c = Int.compare sinks.(a) sinks.(b) in
      if c <> 0 then c else Int.compare keys.(a) keys.(b))
    order;
  let buf = Buffer.create (4096 + (24 * n)) in
  (* A degraded run leads with a banner so the report can never be
     mistaken for a complete dependence set. *)
  (match health with
  | Health.Complete -> ()
  | Health.Partial d ->
    Buffer.add_string buf "# PARTIAL RESULT — dependence set is a subset of the truth\n";
    List.iter
      (fun r ->
        Buffer.add_string buf (Printf.sprintf "# reason: %s\n" (Health.reason_to_string r)))
      d.Health.reasons;
    List.iter
      (fun (f : Health.worker_fault) ->
        Buffer.add_string buf (Printf.sprintf "# worker %d crashed: %s\n" f.worker f.exn_text))
      d.Health.faults;
    Buffer.add_string buf (Printf.sprintf "# loss: %s\n" (Health.loss_to_string d.Health.loss)));
  let line_of j = sink_line ~show_threads sinks.(order.(j)) in
  let j = ref 0 in
  (* Every sink line at [loc], each followed by its dependences, four to
     a line, continuations aligned under the first. *)
  let add_sinks_at loc =
    while !j < n && line_of !j / threads = loc do
      let line = line_of !j in
      let start = Buffer.length buf in
      add_loc buf loc;
      if show_threads then begin
        Buffer.add_char buf '|';
        add_int buf (line mod threads)
      end;
      let indent = Buffer.length buf - start + 5 in
      Buffer.add_string buf " NOM ";
      let count = ref 0 in
      while !j < n && line_of !j = line do
        if !count = deps_per_line then begin
          Buffer.add_char buf '\n';
          Buffer.add_string buf (String.make indent ' ');
          count := 0
        end
        else if !count > 0 then Buffer.add_char buf ' ';
        add_dep buf ~show_threads ~var_name keys.(order.(!j));
        incr count;
        incr j
      done;
      Buffer.add_char buf '\n'
    done
  in
  (* Merge the sink lines with the loop marks, in location order. *)
  let rec walk = function
    | (loc, (begins, ends)) :: rest when !j = n || loc <= line_of !j / threads ->
      if begins then begin
        add_loc buf loc;
        Buffer.add_string buf " BGN loop\n"
      end;
      add_sinks_at loc;
      Option.iter
        (fun iterations ->
          add_loc buf loc;
          Buffer.add_string buf " END loop ";
          add_int buf iterations;
          Buffer.add_char buf '\n')
        ends;
      walk rest
    | marks when !j < n ->
      add_sinks_at (line_of !j / threads);
      walk marks
    | _ -> ()
  in
  walk (Loc_map.bindings (loop_marks regions));
  Buffer.contents buf

(* Summary counts per dependence kind, handy for CLI output. *)
let kind_counts (deps : Dep_store.t) =
  Dep_store.fold deps
    (fun dep _ (raw, war, waw, init, races) ->
      let races = if dep.Dep.race then races + 1 else races in
      match dep.Dep.kind with
      | Dep.RAW -> (raw + 1, war, waw, init, races)
      | Dep.WAR -> (raw, war + 1, waw, init, races)
      | Dep.WAW -> (raw, war, waw + 1, init, races)
      | Dep.INIT -> (raw, war, waw, init + 1, races))
    (0, 0, 0, 0, 0)
