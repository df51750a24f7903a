(* Algorithm 1 of the paper: signature-based data-dependence detection.

   The access store records, for every slot (or address), the last write
   and the last read that mapped to it.  On a write: an empty write
   direction means this is the address's first write (INIT); otherwise a
   WAW is built; a non-empty read direction builds a WAR.  On a read: a
   non-empty write direction builds a RAW.  Read-after-read is
   deliberately not tracked.

   Deviation from the paper's printed pseudocode: there, WAR is nested
   under the "write slot non-empty" branch, so a read-then-write with no
   earlier write would be missed.  We build WAR from the read direction
   alone, which matches the paper's prose; the literal behaviour is
   available via [war_requires_prior_write] and quantified by the
   `ablate-war` bench.

   Both directions of an address sit in one cell of four int lanes
   (write payload, write time, read payload, read time), so each access
   locates its cell once, reads the lanes it needs and overwrites its own
   direction.  The functor abstracts the store so the same kernel runs
   over the real signature (Sig_store), the perfect signature
   (Perfect_sig) and the baseline stores. *)

module type STORE = sig
  type t

  val cell : t -> addr:int -> int
  val lanes : t -> int array
  val set_write : t -> int -> payload:int -> time:int -> unit
  val set_read : t -> int -> payload:int -> time:int -> unit
  val remove : t -> addr:int -> unit
end

(* Optional observer invoked for every dependence as it is built, with the
   timestamps of both end points — the hook the loop-parallelism analysis
   (Sec. VII-A) uses to decide whether a dependence is loop-carried. *)
type dep_observer = Dep.kind -> sink:int -> src:int -> src_time:int -> sink_time:int -> unit

(* Output signature of [Make], usable as a first-class module so store-
   agnostic code (e.g. Serial_profiler) can be written once. *)
module type S = sig
  type store
  type t

  val create :
    ?track_init:bool ->
    ?war_requires_prior_write:bool ->
    ?check_timestamps:bool ->
    ?race_of:(src_time:int -> sink_time:int -> bool) ->
    store:store ->
    deps:Dep_store.t ->
    unit ->
    t

  val set_observer : t -> dep_observer -> unit
  val on_write : t -> addr:int -> payload:int -> time:int -> unit
  val on_read : t -> addr:int -> payload:int -> time:int -> unit
  val on_free : t -> addr:int -> unit
end

module Make (S : STORE) = struct
  type store = S.t
  type t = {
    store : S.t;
    deps : Dep_store.t;
    track_init : bool;
    war_requires_prior_write : bool;
    check_timestamps : bool;
    race_of : (src_time:int -> sink_time:int -> bool) option;
    mutable observer : dep_observer option;
  }

  let create ?(track_init = true) ?(war_requires_prior_write = false)
      ?(check_timestamps = false) ?race_of ~store ~deps () =
    {
      store;
      deps;
      track_init;
      war_requires_prior_write;
      check_timestamps;
      race_of;
      observer = None;
    }

  let set_observer t obs = t.observer <- Some obs

  let build t kind ~sink ~src ~src_time ~sink_time =
    (* Default verdict: a source timestamp later than the sink's means
       the push order was observed reversed — flag a potential race
       (Sec. V-B).  [race_of] replaces the heuristic wholesale: the dag
       engine passes strand stamps as times and decides by SP order. *)
    let race =
      match t.race_of with
      | Some f -> f ~src_time ~sink_time
      | None -> t.check_timestamps && src_time > sink_time
    in
    Dep_store.add t.deps ~kind ~sink ~src ~race;
    match t.observer with
    | Some f -> f kind ~sink ~src ~src_time ~sink_time
    | None -> ()

  (* Lanes of a cell at offset [c]: c = write payload, c+1 = write time,
     c+2 = read payload, c+3 = read time; payload 0 = no access yet. *)
  let on_write t ~addr ~payload ~time =
    let s = t.store in
    let c = S.cell s ~addr in
    let l = S.lanes s in
    let w = l.(c) in
    if w = 0 then begin
      if t.track_init then Dep_store.add_init t.deps ~sink:payload
    end
    else build t Dep.WAW ~sink:payload ~src:w ~src_time:l.(c + 1) ~sink_time:time;
    let r = l.(c + 2) in
    if r <> 0 && ((not t.war_requires_prior_write) || w <> 0) then
      build t Dep.WAR ~sink:payload ~src:r ~src_time:l.(c + 3) ~sink_time:time;
    S.set_write s c ~payload ~time

  let on_read t ~addr ~payload ~time =
    let s = t.store in
    let c = S.cell s ~addr in
    let l = S.lanes s in
    let w = l.(c) in
    if w <> 0 then build t Dep.RAW ~sink:payload ~src:w ~src_time:l.(c + 1) ~sink_time:time;
    S.set_read s c ~payload ~time

  (* Variable-lifetime analysis: a freed address's history must not leak
     into the next variable that reuses the address. *)
  let on_free t ~addr = S.remove t.store ~addr
end

module Over_signature = Make (Sig_store)
module Over_perfect = Make (Perfect_sig)
