(** The instrumenting MiniIR interpreter — the reproduction's analogue of
    the paper's LLVM instrumentation pass.

    Simulated threads are interleaved by a seeded deterministic scheduler
    built on OCaml 5 effects, so profiled traces are replayable. *)

exception Runtime_error of string

type stats = {
  reads : int;
  writes : int;
  accesses : int;  (** reads + writes: "#accesses" of Table I *)
  addresses : int;  (** distinct cells allocated: "#addresses" of Table I *)
  final_time : int;
  lines : int;  (** numbered source lines: the "LOC" analogue *)
  sync_stalls : int;
      (** task programs: syncs that had to wait for an unfinished child
          (0 when every child happened to finish first, and always 0 for
          non-task programs) *)
}

val run :
  ?hooks:Event.hooks ->
  ?sched_seed:int ->
  ?input_seed:int ->
  ?schedule:(int -> int) ->
  ?symtab:Symtab.t ->
  Ast.program ->
  stats
(** Execute a program, delivering instrumentation events to [hooks]
    (default: none — the "uninstrumented" baseline).  [sched_seed] drives
    the thread interleaving, [input_seed] the [rand]/[rand_int]
    intrinsics.  Numbers the program's lines as a side effect.

    Programs using [Spawn]/[Sync] run under a fork-join task scheduler:
    the top-level body is the root task (tid 0), every frame (program,
    task body, procedure body) implicitly syncs its children on exit, and
    [Task_spawn]/[Task_join] [Sync] events are emitted — plus
    [Lock_acquire]/[Lock_release] from [Lock]/[Unlock] everywhere.
    [schedule] overrides the seeded scheduler for task programs: it is
    called once per scheduling step (every statement and loop iteration
    of the running task) with the number [n] of currently runnable tasks,
    and must return a pick [k] in [\[0, n)]; the step then runs the
    [k]-th runnable task in spawn order (tid order, the root first).  A
    task is runnable unless it has finished or is parked at a sync whose
    children have not all finished.  Exhaustive-interleaving oracles
    ([Ddp_testkit.Dag_oracle]) rely on this contract to enumerate and
    replay every schedule of a small program; a pick outside [\[0, n)]
    raises [Runtime_error].

    Simulated threads and tasks get tids [0..Loc.max_thread]: a [Par]
    with more arms, or a program that spawns more tasks in one run,
    raises [Runtime_error "task limit (1024) exceeded"].  Mixing [Par]
    with tasks is a runtime error. *)

val trace :
  ?sched_seed:int ->
  ?input_seed:int ->
  ?schedule:(int -> int) ->
  ?symtab:Symtab.t ->
  Ast.program ->
  Event.t list * stats
(** Run and collect the full event trace (tests and oracles only — the
    trace of a real workload is large). *)
