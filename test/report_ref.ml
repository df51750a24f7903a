(* The report renderer as it was before the unboxed-key rewrite in
   Ddp_core.Report, kept verbatim as the reference the property tests in
   test_report.ml hold the production renderer to: byte-equal output on
   every input.  It groups dependences in a map keyed by sink, sorts each
   group's list and prints every line with [Printf.sprintf]. *)

module Dep = Ddp_core.Dep
module Dep_store = Ddp_core.Dep_store
module Health = Ddp_core.Health
module Region = Ddp_core.Region
module Loc = Ddp_minir.Loc

(* Sink key: (location, thread).  Thread participates only in
   [show_threads] mode. *)
module Sink = struct
  type t = Loc.t * int

  let compare (l1, t1) (l2, t2) =
    let c = Loc.compare l1 l2 in
    if c <> 0 then c else Int.compare t1 t2
end

module Sink_map = Map.Make (Sink)
module Loc_map = Map.Make (Int)

let deps_per_line = 4

let sink_to_string ~show_threads (loc, thread) =
  if show_threads then Printf.sprintf "%s|%d" (Loc.to_string loc) thread else Loc.to_string loc

let render ?(show_threads = false) ?(health = Health.Complete) ~var_name ~(deps : Dep_store.t)
    ~(regions : Region.t) () =
  let buf = Buffer.create 4096 in
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
  (* Group dependences by sink. *)
  let groups =
    Dep_store.fold deps
      (fun dep _count acc ->
        let key = (Dep.sink_loc dep, if show_threads then Dep.sink_thread dep else 0) in
        let existing = Option.value (Sink_map.find_opt key acc) ~default:[] in
        Sink_map.add key (dep :: existing) acc)
      Sink_map.empty
  in
  (* Region begin/end lines. *)
  let begins, ends =
    Region.fold regions
      (fun loc info (b, e) ->
        (Loc_map.add loc info b, Loc_map.add info.Region.end_loc (loc, info) e))
      (Loc_map.empty, Loc_map.empty)
  in
  (* All lines that must appear, in (file, line, thread) order. *)
  let lines =
    let of_groups = List.map (fun ((loc, _), _) -> loc) (Sink_map.bindings groups) in
    let of_begins = List.map fst (Loc_map.bindings begins) in
    let of_ends = List.map fst (Loc_map.bindings ends) in
    List.sort_uniq Loc.compare (of_groups @ of_begins @ of_ends)
  in
  let print_group sink deps_list =
    let sink_str = sink_to_string ~show_threads sink in
    let sorted = List.sort Dep.compare deps_list in
    let rendered = List.map (Dep.to_string ~show_threads ~var_name) sorted in
    let rec chunks = function
      | [] -> []
      | l ->
        let rec take n = function
          | x :: rest when n > 0 ->
            let taken, dropped = take (n - 1) rest in
            (x :: taken, dropped)
          | rest -> ([], rest)
        in
        let head, tail = take deps_per_line l in
        head :: chunks tail
    in
    List.iteri
      (fun i chunk ->
        if i = 0 then Buffer.add_string buf (Printf.sprintf "%s NOM " sink_str)
        else Buffer.add_string buf (String.make (String.length sink_str + 5) ' ');
        Buffer.add_string buf (String.concat " " chunk);
        Buffer.add_char buf '\n')
      (chunks rendered)
  in
  List.iter
    (fun loc ->
      (match Loc_map.find_opt loc begins with
      | Some _ -> Buffer.add_string buf (Printf.sprintf "%s BGN loop\n" (Loc.to_string loc))
      | None -> ());
      Sink_map.iter
        (fun ((l, _) as sink) ds -> if l = loc then print_group sink ds)
        groups;
      match Loc_map.find_opt loc ends with
      | Some (_begin_loc, info) ->
        Buffer.add_string buf
          (Printf.sprintf "%s END loop %d\n" (Loc.to_string loc) info.Region.iterations)
      | None -> ())
    lines;
  Buffer.contents buf
