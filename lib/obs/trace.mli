(** Span tracing with Chrome [trace_event] export.

    Spans are recorded as complete ("ph":"X") events with microsecond
    timestamps relative to the trace's creation, so the resulting JSON
    loads directly into Perfetto / chrome://tracing. The buffer is
    mutex-protected; a span is measured on the recording domain and
    appended once at its end, so tracing adds two clock reads and one
    short critical section per span. *)

type t

val create : unit -> t

val with_span : t -> name:string -> cat:string -> (unit -> 'a) -> 'a
(** Bracket [f] in a span; the span is recorded even if [f] raises. *)

val complete :
  ?args:(string * Json.t) list ->
  t ->
  name:string ->
  cat:string ->
  start_s:float ->
  dur_s:float ->
  unit
(** Record a span measured externally: [start_s] is an absolute
    {!Unix.gettimeofday} time, [dur_s] a duration in seconds. Lets
    callers time first and decide afterwards whether the span clears a
    reporting threshold. *)

val event_count : t -> int

val to_json : t -> Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}]. Events carry
    [pid] 1 and [tid] = the recording domain's id. *)
