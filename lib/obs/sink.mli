(** The observability sink threaded through the flow.

    A sink bundles the four channels (metrics, trace, events, progress)
    behind one record whose [enabled] flag is the single branch hot
    paths test. The contract for instrumented code:

    - check [sink.enabled] first; when false, do {e nothing} — no clock
      reads, no allocation, no atomic ops. {!null} is the default
      everywhere, which is how observability-off runs stay bit-identical
      to the uninstrumented seed.
    - when true, resolve metric handles {e once} outside the loop
      ([Metrics.counter sink.metrics "..."]) and update the handles
      inside it.

    The sink contains mutexes and closures, so it must never be
    marshaled: {!Flow} excludes it from the checkpoint fingerprint. *)

type t = {
  enabled : bool;
  metrics : Metrics.t;
  trace : Trace.t option;
  events : Events.t option;
  progress : Progress.t option;
  atpg_span_s : float;
      (** individual ATPG calls shorter than this are not traced
          (default 1 ms) *)
}

val null : t
(** [enabled = false]; its registry exists but stays empty because
    instrumented code never touches a disabled sink. *)

val create :
  ?metrics:Metrics.t ->
  ?trace:Trace.t ->
  ?events:Events.t ->
  ?progress:Progress.t ->
  ?atpg_span_s:float ->
  unit ->
  t

val span : t -> name:string -> cat:string -> (unit -> 'a) -> 'a
(** Trace a span when a trace buffer is attached; otherwise just run. *)

val event : t -> kind:string -> (string * Json.t) list -> unit
(** Emit a structured event when an event log is attached. *)

val tick :
  t ->
  ?failed:int ->
  ?quarantined:int ->
  phase:string ->
  done_:int ->
  total:int ->
  detected:int ->
  budget_left:float ->
  unit ->
  unit
(** Heartbeat when progress is attached. [failed] / [quarantined]
    surface failure-containment counts on the line when nonzero
    ({!Progress.tick}). *)
