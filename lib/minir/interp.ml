(* The MiniIR interpreter: the stand-in for the paper's LLVM
   instrumentation.  Every scalar/array load and store emits an event
   through [Event.hooks], carrying address, source line, variable id,
   thread id, a global timestamp and whether the thread holds a lock.

   Simulated threads ([Par] blocks) are run on OCaml 5 effects: each
   thread performs [Yield] at statement and loop-iteration boundaries and
   a seeded random scheduler picks the next runnable thread, so the
   interleaving — and hence every profiled trace — is deterministic and
   replayable for a given seed. *)

exception Runtime_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

type scalar_binding = { addr : int; var : int }
type array_binding = { base : int; len : int; avar : int; mutable freed : bool }

type binding =
  | Scalar of scalar_binding
  | Arr of array_binding

module Env = Map.Make (String)

type thread_state = {
  tid : int;
  mutable held : int list;  (* lock ids currently held, innermost first *)
  mutable depth : int;  (* procedure-call depth, for recursion guard *)
  scheduled : bool;  (* true inside a Par: Yield effects are meaningful *)
  (* Task runtime only (empty otherwise): one frame per enclosing
     program body / task body / procedure body, innermost first.
     [Spawn] adds to the head; [Sync] — explicit or the implicit one at
     frame exit — joins and clears the head. *)
  mutable frames : frame list;
}

(* The children a frame spawned since its last sync.  A child that
   finishes decrements its own frame's [running]; the last one wakes the
   owner if it is parked on that frame, so a child of an outer frame
   never wakes a task parked at an inner sync. *)
and frame = {
  owner : int;  (* tid of the task the frame belongs to *)
  mutable children : int list;  (* newest first *)
  mutable running : int;  (* of [children], those not yet finished *)
  mutable parked : bool;  (* the owner waits at this frame's sync *)
}

(* -- effects-based cooperative threads ---------------------------------- *)

type _ Effect.t += Yield : unit Effect.t

type status = Finished | Paused of (unit, status) Effect.Deep.continuation

(* The fork-join task scheduler ([Spawn]/[Sync] programs).  Unlike
   [run_par]'s fixed thread array, tasks are created dynamically (a
   recursive fib spawns hundreds), so slots grow; slot [i] holds tid [i].
   [choose] picks among the currently runnable tasks — seeded-random by
   default, or an injected schedule for exhaustive-interleaving oracles.

   A Fenwick tree over the slots holds 1 for each runnable task, so one
   scheduling step (count, pick the k-th runnable in tid order, update)
   costs O(log T) for T tasks. *)
type task_slot = {
  sts : thread_state;
  spawned_in : frame option;  (* the parent's frame; [None] for the root *)
  mutable st :
    [ `Not_started of (unit -> unit)
    | `Paused of (unit, status) Effect.Deep.continuation
    | `Finished ];
}

type task_sched = {
  mutable slots : task_slot array;  (* first [ntasks] entries are live *)
  mutable ntasks : int;
  mutable fenwick : int array;
      (* 1-based over a power-of-two capacity [Array.length slots]: entry
         [i] sums the runnable flags of slots [i - lowbit i, i) *)
  mutable runnable : int;  (* tasks neither finished nor parked *)
  mutable live : int;  (* tasks not yet finished *)
  mutable stalls : int;  (* syncs that had to wait for an unfinished child *)
  choose : int -> int;  (* #runnable -> index of the task to step *)
}

type ctx = {
  hooks : Event.hooks;
  mem : Memory.t;
  symtab : Symtab.t;
  file : int;
  mutable time : int;
  mutable reads : int;
  mutable writes : int;
  sched_rng : Ddp_util.Rng.t;
  prog_rng : Ddp_util.Rng.t;
  locks : (int, int) Hashtbl.t;  (* lock id -> owner tid *)
  funcs : (string, Ast.func) Hashtbl.t;
  mutable globals : binding Env.t;  (* top-level bindings, visible to procedures *)
  mutable tasks : task_sched option;  (* Some iff running a Spawn/Sync program *)
}

let max_call_depth = 200

(* Simulated threads and tasks get tids 0..[Loc.max_thread]: a larger
   one would not fit the thread field of a dependence payload. *)
let check_thread_limit tid =
  if tid > Loc.max_thread then error "task limit (%d) exceeded" (Loc.max_thread + 1)

type stats = {
  reads : int;
  writes : int;
  accesses : int;
  addresses : int;
  final_time : int;
  lines : int;
  sync_stalls : int;
}

let yield ts = if ts.scheduled then Effect.perform Yield

let spawn fn =
  Effect.Deep.match_with
    (fun () ->
      fn ();
      Finished)
    ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
            Some (fun (k : (a, status) Effect.Deep.continuation) -> Paused k)
          | _ -> None);
    }

(* -- task scheduler bookkeeping ------------------------------------------ *)

let new_frame owner = { owner; children = []; running = 0; parked = false }

(* A task is runnable unless it has finished or is parked at a [Sync]
   whose children have not all finished.  (Lock waiters poll, so they
   stay runnable.)  [set_runnable] flips slot [tid]'s flag by [d] = ±1. *)
let set_runnable sched tid d =
  let f = sched.fenwick and cap = Array.length sched.slots in
  let i = ref (tid + 1) in
  while !i <= cap do
    f.(!i) <- f.(!i) + d;
    i := !i + (!i land - !i)
  done;
  sched.runnable <- sched.runnable + d

(* The tid of the [k]-th runnable task (0-based) in tid order: descend
   the implicit tree, skipping every subtree whose count fits in [k]. *)
let kth_runnable sched k =
  let f = sched.fenwick in
  let pos = ref 0 and k = ref k and step = ref (Array.length sched.slots) in
  while !step > 0 do
    let next = !pos + !step in
    if next < Array.length f && f.(next) <= !k then begin
      pos := next;
      k := !k - f.(next)
    end;
    step := !step lsr 1
  done;
  !pos

let add_task sched sts ~spawned_in fn =
  check_thread_limit sched.ntasks;
  let slot = { sts; spawned_in; st = `Not_started fn } in
  let cap = Array.length sched.slots in
  if sched.ntasks = cap then begin
    (* Growing a power-of-two capacity by doubling: the old entries keep
       their ranges and the new ones cover only empty slots, except the
       new top entry, which spans everything (entry 0 is always 0). *)
    let cap' = max 8 (2 * cap) in
    let slots = Array.make cap' slot and fenwick = Array.make (cap' + 1) 0 in
    Array.blit sched.slots 0 slots 0 cap;
    Array.blit sched.fenwick 0 fenwick 0 (cap + 1);
    fenwick.(cap') <- sched.fenwick.(cap);
    sched.slots <- slots;
    sched.fenwick <- fenwick
  end;
  sched.slots.(sched.ntasks) <- slot;
  set_runnable sched sched.ntasks 1;
  sched.ntasks <- sched.ntasks + 1;
  sched.live <- sched.live + 1

(* -- event emission ------------------------------------------------------ *)

let tick (ctx : ctx) =
  let t = ctx.time in
  ctx.time <- t + 1;
  t

let emit_read (ctx : ctx) ts ~addr ~loc ~var =
  ctx.reads <- ctx.reads + 1;
  ctx.hooks.on_read ~addr ~loc ~var ~thread:ts.tid ~time:(tick ctx) ~locked:(ts.held <> [])

let emit_write (ctx : ctx) ts ~addr ~loc ~var =
  ctx.writes <- ctx.writes + 1;
  ctx.hooks.on_write ~addr ~loc ~var ~thread:ts.tid ~time:(tick ctx) ~locked:(ts.held <> [])

(* -- bindings ------------------------------------------------------------ *)

let lookup env name =
  match Env.find_opt name env with
  | Some b -> b
  | None -> error "undefined variable %S" name

let scalar env name =
  match lookup env name with
  | Scalar s -> s
  | Arr _ -> error "%S is an array, expected a scalar" name

let array env name =
  match lookup env name with
  | Arr a -> if a.freed then error "use of freed array %S" name else a
  | Scalar _ -> error "%S is a scalar, expected an array" name

(* -- expressions --------------------------------------------------------- *)

let intrinsic ctx name args =
  let one () = match args with [ x ] -> x | _ -> error "%s expects 1 argument" name in
  let f1 g = Value.F (g (Value.to_float (one ()))) in
  match name with
  | "sqrt" -> f1 sqrt
  | "sin" -> f1 sin
  | "cos" -> f1 cos
  | "exp" -> f1 exp
  | "log" -> f1 log
  | "floor" -> f1 Float.round
  | "abs" -> (
    match one () with Value.I n -> Value.I (abs n) | Value.F x -> Value.F (Float.abs x))
  | "int" -> Value.I (Value.to_int (one ()))
  | "float" -> Value.F (Value.to_float (one ()))
  | "assert" ->
    if not (Value.truth (one ())) then error "assertion failed in target program";
    Value.I 1
  | "rand" ->
    if args <> [] then error "rand expects no arguments";
    Value.F (Ddp_util.Rng.float ctx.prog_rng 1.0)
  | "rand_int" -> Value.I (Ddp_util.Rng.int ctx.prog_rng (Value.to_int (one ())))
  | _ -> error "unknown intrinsic %S" name

let rec eval ctx ts env ~line e =
  let loc = Loc.make ~file:ctx.file ~line in
  match e with
  | Ast.Int n -> Value.I n
  | Ast.Float x -> Value.F x
  | Ast.Var name ->
    let s = scalar env name in
    emit_read ctx ts ~addr:s.addr ~loc ~var:s.var;
    Memory.get ctx.mem s.addr
  | Ast.Load (name, ix) ->
    let a = array env name in
    let i = Value.to_int (eval ctx ts env ~line ix) in
    if i < 0 || i >= a.len then error "array %S: index %d out of bounds [0,%d)" name i a.len;
    emit_read ctx ts ~addr:(a.base + i) ~loc ~var:a.avar;
    Memory.get ctx.mem (a.base + i)
  | Ast.Binop (op, l, r) ->
    let lv = eval ctx ts env ~line l in
    let rv = eval ctx ts env ~line r in
    Value.binop op lv rv
  | Ast.Unop (op, x) -> Value.unop op (eval ctx ts env ~line x)
  | Ast.Intrinsic (name, args) ->
    let vals = List.map (eval ctx ts env ~line) args in
    intrinsic ctx name vals

(* -- statements ---------------------------------------------------------- *)

let alloc_scalar ctx env name ~line:_ =
  let addr = Memory.alloc ctx.mem 1 in
  let var = Symtab.var ctx.symtab name in
  ctx.hooks.on_alloc ~base:addr ~len:1 ~var;
  (Env.add name (Scalar { addr; var }) env, Scalar { addr; var })

let free_binding ctx = function
  | Scalar { addr; var } ->
    ctx.hooks.on_free ~base:addr ~len:1 ~var;
    Memory.free ctx.mem ~base:addr ~len:1
  | Arr a ->
    if not a.freed then begin
      a.freed <- true;
      ctx.hooks.on_free ~base:a.base ~len:a.len ~var:a.avar;
      Memory.free ctx.mem ~base:a.base ~len:a.len
    end

(* Join every child spawned so far in [ts]'s innermost frame: if any is
   still running, park (leave the runnable set and [Yield]; the last
   child to finish puts us back), then emit one [Task_join] per child in
   spawn order.  Outside the task runtime the frame stack is empty and
   this is a no-op. *)
let task_sync ctx ts =
  match ts.frames with
  | [] -> ()
  | frame :: _ ->
    let sched = match ctx.tasks with Some s -> s | None -> assert false in
    let children = List.rev frame.children in
    frame.children <- [];
    if frame.running > 0 then begin
      sched.stalls <- sched.stalls + 1;
      frame.parked <- true;
      set_runnable sched ts.tid (-1);
      Effect.perform Yield
    end;
    List.iter
      (fun child ->
        ctx.hooks.on_sync ~kind:Event.Task_join ~obj:child ~thread:ts.tid ~time:ctx.time)
      children

let rec exec_stmt ctx ts env scope (s : Ast.stmt) =
  yield ts;
  let line = s.line in
  let loc = Loc.make ~file:ctx.file ~line in
  match s.kind with
  | Ast.Nop -> env
  | Ast.Local (name, e) ->
    let v = eval ctx ts env ~line e in
    let env, b = alloc_scalar ctx env name ~line in
    (match b with
    | Scalar { addr; var } ->
      emit_write ctx ts ~addr ~loc ~var;
      Memory.set ctx.mem addr v
    | Arr _ -> assert false);
    scope := b :: !scope;
    env
  | Ast.Assign (name, e) ->
    let v = eval ctx ts env ~line e in
    let sc = scalar env name in
    emit_write ctx ts ~addr:sc.addr ~loc ~var:sc.var;
    Memory.set ctx.mem sc.addr v;
    env
  | Ast.Store (name, ix, e) ->
    let a = array env name in
    let i = Value.to_int (eval ctx ts env ~line ix) in
    if i < 0 || i >= a.len then error "array %S: index %d out of bounds [0,%d)" name i a.len;
    let v = eval ctx ts env ~line e in
    emit_write ctx ts ~addr:(a.base + i) ~loc ~var:a.avar;
    Memory.set ctx.mem (a.base + i) v;
    env
  | Ast.Array_decl (name, size) ->
    let len = Value.to_int (eval ctx ts env ~line size) in
    if len <= 0 then error "array %S: size must be positive, got %d" name len;
    let base = Memory.alloc ctx.mem len in
    let var = Symtab.var ctx.symtab name in
    ctx.hooks.on_alloc ~base ~len ~var;
    let b = Arr { base; len; avar = var; freed = false } in
    scope := b :: !scope;
    Env.add name b env
  | Ast.Free name ->
    let a = array env name in
    free_binding ctx (Arr a);
    env
  | Ast.If (cond, then_, else_) ->
    let c = eval ctx ts env ~line cond in
    if Value.truth c then exec_block ctx ts env then_ else exec_block ctx ts env else_;
    env
  | Ast.For { index; lo; hi; step; body; parallel = _; reduction = _ } ->
    let end_loc = Loc.make ~file:ctx.file ~line:s.end_line in
    let lo_v = eval ctx ts env ~line lo in
    let env', b = alloc_scalar ctx env index ~line in
    let idx = match b with Scalar sc -> sc | Arr _ -> assert false in
    emit_write ctx ts ~addr:idx.addr ~loc ~var:idx.var;
    Memory.set ctx.mem idx.addr lo_v;
    ctx.hooks.on_region_enter ~loc ~kind:Event.Loop ~thread:ts.tid ~time:ctx.time;
    let iterations = ref 0 in
    let continue_ () =
      let hi_v = eval ctx ts env' ~line hi in
      emit_read ctx ts ~addr:idx.addr ~loc ~var:idx.var;
      let iv = Memory.get ctx.mem idx.addr in
      Value.truth (Value.binop Value.Lt iv hi_v)
    in
    while continue_ () do
      ctx.hooks.on_region_iter ~loc ~thread:ts.tid ~time:ctx.time;
      incr iterations;
      yield ts;
      exec_block ctx ts env' body;
      (* increment: i = i + step, attributed to the header line *)
      let step_v = eval ctx ts env' ~line step in
      emit_read ctx ts ~addr:idx.addr ~loc ~var:idx.var;
      let iv = Memory.get ctx.mem idx.addr in
      emit_write ctx ts ~addr:idx.addr ~loc ~var:idx.var;
      Memory.set ctx.mem idx.addr (Value.binop Value.Add iv step_v)
    done;
    ctx.hooks.on_region_exit ~loc ~end_loc ~kind:Event.Loop ~iterations:!iterations
      ~thread:ts.tid ~time:ctx.time;
    free_binding ctx b;
    env
  | Ast.While (cond, body) ->
    let end_loc = Loc.make ~file:ctx.file ~line:s.end_line in
    ctx.hooks.on_region_enter ~loc ~kind:Event.Loop ~thread:ts.tid ~time:ctx.time;
    let iterations = ref 0 in
    while Value.truth (eval ctx ts env ~line cond) do
      ctx.hooks.on_region_iter ~loc ~thread:ts.tid ~time:ctx.time;
      incr iterations;
      yield ts;
      exec_block ctx ts env body
    done;
    ctx.hooks.on_region_exit ~loc ~end_loc ~kind:Event.Loop ~iterations:!iterations
      ~thread:ts.tid ~time:ctx.time;
    env
  | Ast.Lock id ->
    acquire ctx ts id;
    env
  | Ast.Unlock id ->
    release ctx ts id;
    env
  | Ast.Par blocks ->
    if ctx.tasks <> None then error "Par and Spawn cannot be mixed";
    if ts.scheduled then error "nested Par is not supported";
    run_par ctx ts env blocks;
    env
  | Ast.Spawn body -> (
    match ctx.tasks with
    | None -> error "Spawn outside the task runtime"
    | Some sched ->
      let frame =
        match ts.frames with f :: _ -> f | [] -> error "Spawn outside the task runtime"
      in
      let child_tid = sched.ntasks in
      let cts =
        {
          tid = child_tid;
          held = [];
          depth = ts.depth;  (* inherited: bounds runaway spawn-recursion too *)
          scheduled = true;
          frames = [ new_frame child_tid ];  (* the task body is itself a frame *)
        }
      in
      let fn () = exec_frame ctx cts env body in
      add_task sched cts ~spawned_in:(Some frame) fn;
      frame.children <- child_tid :: frame.children;
      frame.running <- frame.running + 1;
      ctx.hooks.on_sync ~kind:Event.Task_spawn ~obj:child_tid ~thread:ts.tid ~time:ctx.time;
      env)
  | Ast.Sync ->
    task_sync ctx ts;
    env
  | Ast.Call_proc (name, args) ->
    let f =
      match Hashtbl.find_opt ctx.funcs name with
      | Some f -> f
      | None -> error "call to undefined procedure %S" name
    in
    if List.length args <> List.length f.Ast.params then
      error "procedure %S expects %d argument(s), got %d" name (List.length f.Ast.params)
        (List.length args);
    if ts.depth >= max_call_depth then error "call depth limit (%d) exceeded" max_call_depth;
    let arg_vals = List.map (eval ctx ts env ~line) args in
    let fid = Symtab.var ctx.symtab name in
    ctx.hooks.on_call ~loc ~func:fid ~thread:ts.tid ~time:ctx.time;
    ts.depth <- ts.depth + 1;
    (* Frame: globals + parameters; parameter writes are attributed to the
       procedure's header line, like a prologue. *)
    let header_loc = Loc.make ~file:ctx.file ~line:f.Ast.header_line in
    let scope = ref [] in
    let fenv =
      List.fold_left2
        (fun env pname v ->
          let env, b = alloc_scalar ctx env pname ~line:f.Ast.header_line in
          (match b with
          | Scalar { addr; var } ->
            emit_write ctx ts ~addr ~loc:header_loc ~var;
            Memory.set ctx.mem addr v
          | Arr _ -> assert false);
          scope := b :: !scope;
          env)
        ctx.globals f.Ast.params arg_vals
    in
    (* Task runtime: a procedure body is a frame — children spawned
       inside it are implicitly joined before the call returns (the
       Cilk rule), so a callee can never leak running tasks. *)
    if ctx.tasks <> None then begin
      ts.frames <- new_frame ts.tid :: ts.frames;
      exec_frame ctx ts fenv f.Ast.fbody;
      ts.frames <- List.tl ts.frames
    end
    else exec_block ctx ts fenv f.Ast.fbody;
    List.iter (free_binding ctx) !scope;
    ts.depth <- ts.depth - 1;
    ctx.hooks.on_return ~func:fid ~thread:ts.tid ~time:ctx.time;
    env

and exec_block ctx ts env block =
  let scope = ref [] in
  let final_env = List.fold_left (fun env s -> exec_stmt ctx ts env scope s) env block in
  ignore final_env;
  (* Scope exit: free in reverse declaration order. *)
  List.iter (free_binding ctx) !scope

(* A frame body in the task runtime: run the block, implicitly sync the
   frame's children, and only then free the block's locals — a pending
   child may still be reading them. *)
and exec_frame ctx ts env block =
  let scope = ref [] in
  let final_env = List.fold_left (fun env s -> exec_stmt ctx ts env scope s) env block in
  ignore final_env;
  task_sync ctx ts;
  List.iter (free_binding ctx) !scope

and acquire ctx ts id =
  let rec try_take () =
    match Hashtbl.find_opt ctx.locks id with
    | None ->
      Hashtbl.replace ctx.locks id ts.tid;
      ts.held <- id :: ts.held;
      ctx.hooks.on_sync ~kind:Event.Lock_acquire ~obj:id ~thread:ts.tid ~time:ctx.time
    | Some owner when owner = ts.tid -> error "thread %d re-locking lock %d" ts.tid id
    | Some _ ->
      if not ts.scheduled then error "main thread deadlocked on lock %d" id;
      Effect.perform Yield;
      try_take ()
  in
  try_take ()

and release ctx ts id =
  (match Hashtbl.find_opt ctx.locks id with
  | Some owner when owner = ts.tid -> Hashtbl.remove ctx.locks id
  | Some _ | None -> error "thread %d unlocking lock %d it does not hold" ts.tid id);
  ts.held <- List.filter (fun l -> l <> id) ts.held;
  ctx.hooks.on_sync ~kind:Event.Lock_release ~obj:id ~thread:ts.tid ~time:ctx.time

(* Fork one simulated thread per block (tids 1..n; the main thread is 0),
   interleave them with the seeded scheduler, join all. *)
and run_par ctx parent env blocks =
  let n = List.length blocks in
  check_thread_limit n;
  let states =
    Array.of_list
      (List.mapi
         (fun i block ->
           let ts = { tid = i + 1; held = []; depth = 0; scheduled = true; frames = [] } in
           `Not_started (ts, fun () -> exec_block ctx ts env block))
         blocks)
  in
  (* Par is fork-join too: bracket the arms with the same Sync vocabulary
     tasks use, so Sync-consuming engines see one uniform shape.  Engines
     that don't subscribe to the class get null calls. *)
  for i = 1 to n do
    ctx.hooks.on_sync ~kind:Event.Task_spawn ~obj:i ~thread:parent.tid ~time:ctx.time
  done;
  let remaining = ref n in
  let max_steps = ref 0 in
  while !remaining > 0 do
    incr max_steps;
    if !max_steps > 100_000_000 then error "scheduler: livelock suspected";
    let pick = Ddp_util.Rng.int ctx.sched_rng n in
    (* Walk from a random start to the first non-finished thread: cheap and
       probabilistically fair. *)
    let rec find k =
      let i = (pick + k) mod n in
      match states.(i) with `Finished -> find (k + 1) | _ -> i
    in
    let i = find 0 in
    (match states.(i) with
    | `Not_started (ts, fn) -> (
      match spawn fn with
      | Finished ->
        ctx.hooks.on_thread_end ~thread:ts.tid;
        decr remaining;
        states.(i) <- `Finished
      | Paused k -> states.(i) <- `Paused (ts, k))
    | `Paused (ts, k) -> (
      match Effect.Deep.continue k () with
      | Finished ->
        ctx.hooks.on_thread_end ~thread:ts.tid;
        decr remaining;
        states.(i) <- `Finished
      | Paused k' -> states.(i) <- `Paused (ts, k'))
    | `Finished -> assert false)
  done;
  for i = 1 to n do
    ctx.hooks.on_sync ~kind:Event.Task_join ~obj:i ~thread:parent.tid ~time:ctx.time
  done

(* -- entry point --------------------------------------------------------- *)

(* A finished task leaves the runnable set; if it was the last running
   child of a frame its parent is parked on, the parent rejoins it. *)
let finish_task ctx sched slot =
  slot.st <- `Finished;
  set_runnable sched slot.sts.tid (-1);
  sched.live <- sched.live - 1;
  (match slot.spawned_in with
  | Some f ->
    f.running <- f.running - 1;
    if f.running = 0 && f.parked then begin
      f.parked <- false;
      set_runnable sched f.owner 1
    end
  | None -> ());
  ctx.hooks.on_thread_end ~thread:slot.sts.tid

(* The fork-join driver for [Spawn]/[Sync] programs: the whole top-level
   body runs as the root task (tid 0) under the dynamic scheduler, so
   spawn points interleave with their continuations exactly like any
   other pair of tasks.  When the root finishes, its implicit sync has
   (transitively) joined everything, so no task outlives the run. *)
let run_tasks ctx prog choose =
  let sched =
    {
      slots = [||];
      ntasks = 0;
      fenwick = [| 0 |];
      runnable = 0;
      live = 0;
      stalls = 0;
      choose;
    }
  in
  ctx.tasks <- Some sched;
  let root = { tid = 0; held = []; depth = 0; scheduled = true; frames = [ new_frame 0 ] } in
  let top_scope = ref [] in
  let root_fn () =
    let (_ : binding Env.t) =
      List.fold_left
        (fun env s ->
          let env' = exec_stmt ctx root env top_scope s in
          ctx.globals <- env';
          env')
        Env.empty prog.Ast.body
    in
    task_sync ctx root;  (* implicit program-end sync *)
    List.iter (free_binding ctx) !top_scope
  in
  add_task sched root ~spawned_in:None root_fn;
  let steps = ref 0 in
  while sched.live > 0 do
    incr steps;
    if !steps > 100_000_000 then error "task scheduler: livelock suspected";
    let n = sched.runnable in
    if n = 0 then error "task deadlock: %d task(s) blocked at sync" sched.live;
    let choice = sched.choose n in
    if choice < 0 || choice >= n then
      error "schedule chose %d out of %d runnable task(s)" choice n;
    let slot = sched.slots.(kth_runnable sched choice) in
    match slot.st with
    | `Not_started fn -> (
      match spawn fn with
      | Finished -> finish_task ctx sched slot
      | Paused k -> slot.st <- `Paused k)
    | `Paused k -> (
      match Effect.Deep.continue k () with
      | Finished -> finish_task ctx sched slot
      | Paused k' -> slot.st <- `Paused k')
    | `Finished -> assert false
  done;
  sched.stalls

let run ?(hooks = Event.null) ?(sched_seed = 42) ?(input_seed = 7) ?schedule ?symtab prog =
  let symtab = match symtab with Some s -> s | None -> Symtab.create () in
  let file = Symtab.file symtab prog.Ast.name in
  if file > Loc.max_file then error "too many distinct programs in one symtab";
  let lines = Ast.number prog in
  if lines > Loc.max_line then error "program too long: %d lines" lines;
  let funcs = Hashtbl.create 8 in
  List.iter
    (fun (f : Ast.func) ->
      if Hashtbl.mem funcs f.Ast.fname then error "duplicate procedure %S" f.Ast.fname;
      Hashtbl.add funcs f.Ast.fname f)
    prog.Ast.funcs;
  let ctx =
    {
      hooks;
      mem = Memory.create ();
      symtab;
      file;
      time = 0;
      reads = 0;
      writes = 0;
      sched_rng = Ddp_util.Rng.create sched_seed;
      prog_rng = Ddp_util.Rng.create input_seed;
      locks = Hashtbl.create 8;
      funcs;
      globals = Env.empty;
      tasks = None;
    }
  in
  let sync_stalls =
    if Ast.has_tasks prog then begin
      let choose =
        match schedule with
        | Some f -> f
        | None -> fun n -> Ddp_util.Rng.int ctx.sched_rng n
      in
      run_tasks ctx prog choose
    end
    else begin
      let ts = { tid = 0; held = []; depth = 0; scheduled = false; frames = [] } in
      (* The top-level scope is special: bindings become globals, visible to
         procedures, and are freed only when the program ends. *)
      let top_scope = ref [] in
      let (_ : binding Env.t) =
        List.fold_left
          (fun env s ->
            let env' = exec_stmt ctx ts env top_scope s in
            ctx.globals <- env';
            env')
          Env.empty prog.Ast.body
      in
      List.iter (free_binding ctx) !top_scope;
      hooks.on_thread_end ~thread:0;
      0
    end
  in
  {
    reads = ctx.reads;
    writes = ctx.writes;
    accesses = ctx.reads + ctx.writes;
    addresses = Memory.high_water ctx.mem;
    final_time = ctx.time;
    lines;
    sync_stalls;
  }

let trace ?sched_seed ?input_seed ?schedule ?symtab prog =
  let hooks, get = Event.collector () in
  let stats = run ~hooks ?sched_seed ?input_seed ?schedule ?symtab prog in
  (get (), stats)
