(* Exhaustive-interleaving oracle for the dag engine.

   Two independent pieces, composed by [check]:

   - [enumerate] drives {!Ddp_minir.Interp}'s [schedule] hook through a
     DFS over choice prefixes, producing every distinct interleaving of
     a small task program (up to [limit] schedules).  Each scheduler
     step records how many tasks were runnable; backtracking increments
     the deepest choice that still has an untried alternative, so the
     walk covers the full schedule tree exactly once.

   - [vc_deps] replays one trace through the same Algorithm 1 kernel the
     dag engine uses ({!Ddp_core.Algo.Over_perfect} over a perfect
     store), but substitutes a vector-clock happens-before relation for
     the SP interval labels: tasks carry sparse clocks keyed by a fresh
     component id per spawn (so run_par's tid reuse cannot conflate
     incarnations), spawn copies the parent's clock into the child, and
     join merges the child's clock back.  A dependence is a race iff the
     endpoints are not both lock-protected and the sink's clock has not
     seen the source's epoch.  Nothing here touches [Ddp_core.Dag] — the
     component under test — yet the dependence keys are built by the
     identical kernel, so the two stores must agree bit-for-bit, race
     flags included.

   [check] asserts that agreement on *every* enumerated schedule: the
   ddpcheck `dag` sweep runs it over random task-shaped programs, the
   test suite over the task workload family. *)

module Ast = Ddp_minir.Ast
module Event = Ddp_minir.Event
module Interp = Ddp_minir.Interp
module Config = Ddp_core.Config
module Dep = Ddp_core.Dep
module Dep_store = Ddp_core.Dep_store
module Payload = Ddp_core.Payload

(* -- schedule enumeration ------------------------------------------------- *)

type run = {
  choices : int list;  (* the pick made at each scheduler step *)
  events : Event.t list;
  stats : Interp.stats;
}

(* DFS over schedule prefixes.  Returns the runs in visit order and
   whether the tree was exhausted within [limit] runs.  Non-task
   programs ignore the hook entirely and yield exactly one run. *)
let enumerate ?(limit = 256) ?(input_seed = 7) ?symtab prog =
  let runs = ref [] and count = ref 0 in
  let prefix = ref [] and exhausted = ref false and stop = ref false in
  while (not !stop) && !count < limit do
    incr count;
    let taken = ref [] (* (choice, arity), deepest first *) in
    let remaining = ref !prefix in
    let schedule n =
      let c =
        match !remaining with
        | c :: rest ->
          remaining := rest;
          c
        | [] -> 0
      in
      taken := (c, n) :: !taken;
      c
    in
    let events, stats = Interp.trace ~schedule ~input_seed ?symtab prog in
    runs := { choices = List.rev_map fst !taken; events; stats } :: !runs;
    (* next prefix: increment the deepest choice with an untried
       alternative, drop everything below it *)
    let rec next = function
      | [] -> None
      | (c, n) :: rest -> if c + 1 < n then Some (List.rev ((c + 1, n) :: rest)) else next rest
    in
    match next !taken with
    | None ->
      exhausted := true;
      stop := true
    | Some pfx -> prefix := List.map fst pfx
  done;
  (List.rev !runs, !exhausted)

(* -- vector-clock dependence oracle --------------------------------------- *)

module Imap = Map.Make (Int)

type task = {
  comp : int;  (* this incarnation's clock component: fresh per spawn *)
  mutable vc : int Imap.t;
}

type access = {
  a_comp : int;
  a_epoch : int;  (* own-component value at access time *)
  a_locked : bool;
  a_vc : int Imap.t;  (* clock snapshot: shared between syncs, O(1) *)
}

let vc_get vc c = match Imap.find_opt c vc with Some n -> n | None -> 0
let vc_join a b = Imap.union (fun _ x y -> Some (max x y)) a b

let vc_deps ?(config = Config.default) (events : Event.t list) =
  let deps = Dep_store.create () in
  let store = Ddp_core.Perfect_sig.create () in
  let tasks : (int, task) Hashtbl.t = Hashtbl.create 16 in
  let next_comp = ref 0 in
  let fresh_comp () =
    let c = !next_comp in
    incr next_comp;
    c
  in
  let root = { comp = fresh_comp (); vc = Imap.singleton 0 1 } in
  Hashtbl.replace tasks 0 root;
  let task tid =
    match Hashtbl.find_opt tasks tid with
    | Some t -> t
    | None ->
      (* unknown thread: adopted as an unjoined child of the root, like
         Dag.stamp does for foreign streams — concurrent with everything
         that follows its first event *)
      let c = fresh_comp () in
      let t = { comp = c; vc = Imap.add c 1 root.vc } in
      Hashtbl.replace tasks tid t;
      t
  in
  let bump t = t.vc <- Imap.add t.comp (vc_get t.vc t.comp + 1) t.vc in
  (* the time an access hands to the kernel is an index into this log *)
  let log : (int, access) Hashtbl.t = Hashtbl.create 256 in
  let next_access = ref 0 in
  let record tid locked =
    let t = task tid in
    let i = !next_access in
    incr next_access;
    Hashtbl.replace log i
      { a_comp = t.comp; a_epoch = vc_get t.vc t.comp; a_locked = locked; a_vc = t.vc };
    i
  in
  let race_of ~src_time ~sink_time =
    let s = Hashtbl.find log src_time and k = Hashtbl.find log sink_time in
    (not (s.a_locked && k.a_locked)) && vc_get k.a_vc s.a_comp < s.a_epoch
  in
  let algo =
    Ddp_core.Algo.Over_perfect.create ~track_init:config.Config.track_init
      ~war_requires_prior_write:config.Config.war_requires_prior_write ~race_of ~store ~deps ()
  in
  List.iter
    (fun (ev : Event.t) ->
      match ev with
      | Event.Read { addr; loc; var; thread; locked; _ } ->
        Ddp_core.Algo.Over_perfect.on_read algo ~addr
          ~payload:(Payload.pack_unsafe ~loc ~var ~thread)
          ~time:(record thread locked)
      | Event.Write { addr; loc; var; thread; locked; _ } ->
        Ddp_core.Algo.Over_perfect.on_write algo ~addr
          ~payload:(Payload.pack_unsafe ~loc ~var ~thread)
          ~time:(record thread locked)
      | Event.Sync { kind = Event.Task_spawn; obj = child; thread = parent; _ } ->
        let p = task parent in
        Hashtbl.replace tasks child
          (let c = fresh_comp () in
           { comp = c; vc = Imap.add c 1 p.vc });
        bump p
      | Event.Sync { kind = Event.Task_join; obj = child; thread = parent; _ } ->
        let p = task parent in
        (match Hashtbl.find_opt tasks child with
        | Some c -> p.vc <- vc_join p.vc c.vc
        | None -> ());
        bump p
      | Event.Sync { kind = Event.Lock_acquire | Event.Lock_release; _ } ->
        (* mutual exclusion travels on each access's locked bit *)
        ()
      | Event.Free { base; len; _ } ->
        if config.Config.lifetime_analysis then
          for a = base to base + len - 1 do
            Ddp_core.Algo.Over_perfect.on_free algo ~addr:a
          done
      | Event.Alloc _ | Event.Region_enter _ | Event.Region_iter _ | Event.Region_exit _
      | Event.Call _ | Event.Return _ | Event.Thread_end _ ->
        ())
    events;
  deps

(* -- the engine under test, over the same trace --------------------------- *)

let dag_deps ?(config = Config.default) (events : Event.t list) =
  let session = Ddp_core.Engines.dag.Ddp_core.Engine.create config in
  Event.replay session.Ddp_core.Engine.hooks events;
  (session.Ddp_core.Engine.finish ()).Ddp_core.Engine.deps

let has_race deps = Dep_store.fold deps (fun (d : Dep.t) _ acc -> acc || d.Dep.race) false

(* -- differential check --------------------------------------------------- *)

type mismatch = {
  schedule_index : int;  (* which enumerated schedule disagreed *)
  choices : int list;
  missing : Dep.t list;  (* oracle has them, the dag engine does not *)
  spurious : Dep.t list;  (* dag engine has them, the oracle does not *)
}

type outcome = {
  schedules : int;
  exhausted : bool;  (* every interleaving visited within the limit *)
  branched : bool;  (* some scheduler step had a real choice *)
  stalled : bool;  (* some schedule made a sync wait for a child *)
  mismatch : mismatch option;
}

let ok o = o.mismatch = None

(* Run every enumerated schedule of [prog] through both the dag engine
   and the vector-clock oracle; the dependence sets (race flags
   included) must match on each. *)
let check ?limit ?input_seed ?symtab ?(config = Config.default) prog =
  let runs, exhausted = enumerate ?limit ?input_seed ?symtab prog in
  let branched = ref false and stalled = ref false in
  let mismatch = ref None in
  List.iteri
    (fun i r ->
      if r.stats.Interp.sync_stalls > 0 then stalled := true;
      if r.choices <> [] then branched := true;
      if !mismatch = None then begin
        let oracle = vc_deps ~config r.events in
        let engine = dag_deps ~config r.events in
        let oset = Dep_store.key_set oracle and eset = Dep_store.key_set engine in
        if not (Dep_store.Key_set.equal oset eset) then
          mismatch :=
            Some
              {
                schedule_index = i;
                choices = r.choices;
                missing = Dep_store.Key_set.(elements (diff oset eset));
                spurious = Dep_store.Key_set.(elements (diff eset oset));
              }
      end)
    runs;
  {
    schedules = List.length runs;
    exhausted;
    branched = !branched;
    stalled = !stalled;
    mismatch = !mismatch;
  }

(* -- shrinking + reporting (ddpcheck dag) --------------------------------- *)

(* Greedy descent through Prog_gen's structural shrinker, keeping the
   smallest program whose [check] still disagrees. *)
let shrink ?limit ?input_seed ?config ?(max_evals = 400) prog =
  let evals = ref 0 in
  let still_fails p =
    incr evals;
    match check ?limit ?input_seed ?config p with
    | o -> not (ok o)
    | exception _ -> false
  in
  let exception Found of Ast.program in
  let first_failing p =
    try
      Prog_gen.shrink p (fun cand ->
          if !evals < max_evals && still_fails cand then raise (Found cand));
      None
    with Found cand -> Some cand
  in
  let rec descend p =
    if !evals >= max_evals then p
    else match first_failing p with None -> p | Some smaller -> descend smaller
  in
  descend prog

let report_to_string ~symtab (m : mismatch) =
  let buf = Buffer.create 256 in
  let dep_line d =
    Printf.sprintf "  %s (sink %s thread %d)"
      (Dep.to_string ~show_threads:true ~var_name:(Ddp_minir.Symtab.var_name symtab) d)
      (Ddp_minir.Loc.to_string (Dep.sink_loc d))
      (Dep.sink_thread d)
  in
  Buffer.add_string buf
    (Printf.sprintf "schedule #%d (choices [%s]): dag engine disagrees with VC oracle\n"
       m.schedule_index
       (String.concat ";" (List.map string_of_int m.choices)));
  if m.missing <> [] then begin
    Buffer.add_string buf "oracle-only dependences (engine missed):\n";
    List.iter (fun d -> Buffer.add_string buf (dep_line d ^ "\n")) m.missing
  end;
  if m.spurious <> [] then begin
    Buffer.add_string buf "engine-only dependences (oracle rejects):\n";
    List.iter (fun d -> Buffer.add_string buf (dep_line d ^ "\n")) m.spurious
  end;
  Buffer.contents buf
