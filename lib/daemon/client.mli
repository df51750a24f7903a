(** Client side of [ddpd-wire/1]: submit a trace for profiling, scrape
    status.

    Connect failures and [BUSY] replies are retried with capped
    exponential backoff plus full jitter (seeded, so tests are
    deterministic); a server-supplied [retry-after-ms] hint is honored
    as a floor under the jittered delay.  Every other failure is a
    typed error, never an exception. *)

type error =
  | Unavailable of string
      (** could not get admitted: connect failures / BUSY, retries
          exhausted.  The payload says which and how many attempts. *)
  | Refused of string  (** the daemon replied ERR (e.g. unknown mode) *)
  | Protocol of string  (** framing violation or malformed reply *)

val error_to_string : error -> string

type report = {
  session : int;
  complete : bool;
  reasons : string list;
  worker_faults : int;
  loss : Ddp_core.Health.loss;
  deps : (Ddp_core.Dep.t * int) list;
  distinct : int;
  occurrences : int;
  events_received : int;
  events_processed : int;
  escalations : int;
  counters : (string * int) list;
  elapsed : float;
  raw : Ddp_obs.Json.t;  (** the whole ddpd-report/1 document *)
}

val dep_key_set : report -> Ddp_core.Dep_store.Key_set.t
(** For diffing a daemon report against a batch run's
    {!Ddp_core.Dep_store.key_set}. *)

val backoff_ms : base_ms:int -> cap_ms:int -> rng:Random.State.t -> floor_ms:int -> int -> int
(** [backoff_ms ~base_ms ~cap_ms ~rng ~floor_ms attempt]: full-jitter
    delay for the given 0-based attempt —
    [max floor (uniform (0, min cap (base * 2^attempt)))].  Exposed for
    tests. *)

val submit :
  ?retries:int ->
  ?base_ms:int ->
  ?cap_ms:int ->
  ?seed:int ->
  ?policy:Ddp_core.Config.backpressure ->
  ?deadline:float ->
  ?inject_crash:int ->
  ?chunk_bytes:int ->
  ?reply_timeout:float ->
  socket:string ->
  name:string ->
  mode:string ->
  events:Ddp_minir.Event.t list ->
  symtab:Ddp_minir.Symtab.t ->
  unit ->
  (report, error) result
(** Encode the events as a v2 trace, stream it in [chunk_bytes] DATA
    frames (default 64 KiB, clamped to {!Wire.max_payload}; small values
    exercise arbitrary re-framing) and return the parsed REPORT.
    [inject_crash] asks the daemon to arm a crash budget against this
    very session (chaos testing). *)

val status :
  ?retries:int ->
  ?base_ms:int ->
  ?cap_ms:int ->
  ?seed:int ->
  ?reply_timeout:float ->
  socket:string ->
  unit ->
  (Ddp_obs.Json.t, error) result
(** Fetch the [ddpd-status/1] document. *)
