(* Timed calls into each layer's public functions.  Every function here
   runs one program (or one recorded trace) through one layer and returns
   the wall seconds it took; nothing inside lib/ is instrumented, so the
   profiled runs of a traced pass execute exactly the code of an untraced
   one. *)

module Ast = Ddp_minir.Ast
module Event = Ddp_minir.Event
module Interp = Ddp_minir.Interp
module Symtab = Ddp_minir.Symtab
module Trace_file = Ddp_minir.Trace_file
module Config = Ddp_core.Config
module Engine = Ddp_core.Engine
module PP = Ddp_core.Parallel_profiler

let clock () = Int.to_float (Ddp_util.Clock.monotonic_ns ()) *. 1e-9

let timed f =
  let t0 = clock () in
  let r = f () in
  (clock () -. t0, r)

type prog = {
  name : string;
  ast : Ast.program;
  race : bool option;  (** @race/@norace ground truth of task programs *)
}

(* One --seed drives both the scheduler and the rand intrinsics. *)
let interp ?hooks ?symtab ~seed p =
  (Interp.run ?hooks ?symtab ~sched_seed:seed ~input_seed:seed p.ast).Interp.accesses

(* The uninstrumented run: events go to the shared null closures. *)
let native ~seed p = timed (fun () -> interp ~seed p)

(* The same run into a one-subscriber Handler.fuse (a counting memory
   handler); minus [native], it is the cost of delivering each event to
   a real subscriber. *)
let handler_hooks =
  let sink = ref 0 in
  let count ~addr ~loc:_ ~var:_ ~thread:_ ~time:_ ~locked:_ = sink := !sink + addr in
  Ddp_minir.Handler.fuse
    [ Ddp_minir.Handler.make ~memory:{ Event.on_read = count; on_write = count } () ]

let handler ~seed p = fst (timed (fun () -> interp ~hooks:handler_hooks ~seed p))

(* -- one profiled run, split at the engine's phase boundaries ------------ *)

type phases = {
  create : float;
  feed : float;  (** the event stream into the session's hooks *)
  finish : float;
  report : float;  (** Report.render of the outcome *)
  events : int;  (** accesses *)
  outcome : Engine.outcome;
}

let wall ph = ph.create +. ph.feed +. ph.finish +. ph.report

let render (o : Engine.outcome) symtab =
  let text =
    Ddp_core.Report.render ~health:o.Engine.health ~var_name:(Symtab.var_name symtab)
      ~deps:o.Engine.deps ~regions:o.Engine.regions ()
  in
  ignore (Sys.opaque_identity text : string)

(* [feed hooks] delivers the stream and returns its accesses; [symtab]
   names the stream's variables in the rendered report. *)
let profiled (engine : Engine.t) config ~symtab feed =
  let t0 = clock () in
  let session = engine.Engine.create config in
  let t1 = clock () in
  let events = feed session.Engine.hooks in
  let t2 = clock () in
  let outcome = session.Engine.finish () in
  let t3 = clock () in
  render outcome symtab;
  let t4 = clock () in
  { create = t1 -. t0; feed = t2 -. t1; finish = t3 -. t2; report = t4 -. t3; events; outcome }

let profiled_live engine config ~seed p =
  let symtab = Symtab.create () in
  profiled engine config ~symtab (fun hooks -> interp ~hooks ~symtab ~seed p)

(* -- the parallel pipeline in virtual mode -------------------------------- *)

(* Virtual mode builds the whole pipeline but spawns no domains: the
   producer's blocking points hand control to [on_stall], which advances
   the worker by one chunk.  Timing each of those steps separates the
   worker's Algorithm 1 from the producer's routing, which no real-domain
   run can do.  This is the only drain timer in the benchmark. *)
type vphases = {
  v : phases;  (** feed and finish include the worker steps below *)
  worker_in_feed : float;
  worker_in_finish : float;
}

let virtual_parallel config ~seed p =
  let worker = ref 0.0 in
  let engine =
    Engine.make ~name:"virtual-parallel" ~description:"" (fun ?account:_ config ->
        let t = PP.create ~virtual_mode:true config in
        let step w =
          let t0 = clock () in
          ignore (PP.worker_step t w : bool);
          worker := !worker +. (clock () -. t0)
        in
        PP.set_vsched t
          { PP.on_chunk = ignore; on_stall = (fun (PP.Queue_full w | PP.Drain_wait w) -> step w) };
        {
          Engine.hooks = PP.hooks t;
          finish =
            (fun () ->
              let r = PP.finish t in
              {
                Engine.deps = r.PP.deps;
                regions = r.PP.regions;
                health = r.PP.health;
                store_bytes = r.PP.signature_bytes;
                extra = Engine.No_extra;
              });
        })
  in
  let in_feed = ref 0.0 in
  let symtab = Symtab.create () in
  let v =
    profiled engine config ~symtab (fun hooks ->
        let n = interp ~hooks ~symtab ~seed p in
        in_feed := !worker;
        n)
  in
  { v; worker_in_feed = !in_feed; worker_in_finish = !worker -. !in_feed }

(* -- recorded traces --------------------------------------------------------- *)

type trace = {
  tname : string;
  events : Event.t list;
  symtab : Symtab.t;
  accesses : int;
}

let record ~seed p =
  let symtab = Symtab.create () in
  let events, st = Interp.trace ~sched_seed:seed ~input_seed:seed ~symtab p.ast in
  { tname = p.name; events; symtab; accesses = st.Interp.accesses }

let encode tr =
  timed (fun () ->
      let buf = Buffer.create 4096 in
      Trace_file.to_buffer buf tr.events tr.symtab;
      Buffer.contents buf)

(* Decode the way a ddpd tenant does: 64 KiB DATA payloads fed into the
   incremental decoder, pulling events until it needs more bytes. *)
let decode bytes =
  let module S = Trace_file.Stream in
  fst
    (timed (fun () ->
         let d = S.create () in
         let frame = 64 * 1024 in
         let rec pull () =
           match S.next d with S.Event _ -> pull () | S.Need_more -> false | S.Done -> true
         in
         let off = ref 0 in
         while !off < String.length bytes do
           let n = min frame (String.length bytes - !off) in
           S.feed d (String.sub bytes !off n);
           off := !off + n;
           ignore (pull () : bool)
         done;
         S.eof d;
         if not (pull ()) then failwith "trace decode: stream not sealed"))

let replay tr hooks =
  Event.replay hooks tr.events;
  tr.accesses

let replay_null tr = fst (timed (fun () -> replay tr Event.null))

let submit ~socket ~seed tr =
  timed (fun () ->
      Ddp_daemon.Client.submit ~seed ~socket ~name:tr.tname ~mode:"serial" ~events:tr.events
        ~symtab:tr.symtab ())

(* -- host speed ----------------------------------------------------------- *)

(* The host's caches and memory are shared with other tenants, whose load
   moves every timing here by tens of percent over minutes.  The
   benchmark samples one fixed kernel of its own between program runs and
   divides each run's wall by the host factor of the samples on either
   side (see perf.ml): xorshift-addressed read-modify-writes over 32 MiB,
   the access shape of a 2^20-slot signature probe.  The kernel belongs
   to the benchmark, not to the profiler, so a change to the profiler
   moves a normalized metric exactly as much as the raw one.  It runs in
   a helper process, so its table stays out of the measured process's
   peak RSS.  The factor is 1.0 at the nominal speed below. *)

let spin_ref_ns = 8.0
let spin_table = lazy (Array.make (1 lsl 22) 0)

(* Nanoseconds per read-modify-write. *)
let spin () =
  let a = Lazy.force spin_table in
  let mask = Array.length a - 1 and iters = 300_000 in
  let s = ref 0x9E3779B9 in
  let dt, () =
    timed (fun () ->
        for _ = 1 to iters do
          let x = !s in
          let x = x lxor (x lsl 13) in
          let x = x lxor (x lsr 7) in
          let x = x lxor (x lsl 17) in
          s := x;
          let i = x land mask in
          Array.unsafe_set a i (Array.unsafe_get a i + 1)
        done)
  in
  ignore (Sys.opaque_identity !s);
  1e9 *. dt /. Int.to_float iters

(* VmHWM: the process's peak resident set, MiB. *)
let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Int.to_float kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM line in /proc/self/status"
      in
      scan ())
