(** Run-artifact directory: the [--obs-dir] convention.

    One handle owns every observability channel of one run and writes a
    coherent artifact set on {!write}:

    - [trace.json] — Chrome trace_event JSON (Perfetto-loadable)
    - [events.jsonl] — structured event log, flushed per line
    - [metrics.prom] — OpenMetrics text exposition ({!Openmetrics})
    - [run.json] — the summary {!Analyze} consumes: schema tag, total
      wall, caller-supplied config blob, per-phase wall seconds (from
      the flow's [flow.<phase>.wall_s] gauges), counter/gauge/fcounter
      snapshots, and histograms with p50/p90/p99 log-bucket quantiles.
      Schema tag ["fst-run/2"]. Per-worker pool attribution is not
      repeated here: {!Analyze} derives it from the [pool] spans of
      [trace.json].

    The sink handed out by {!sink} is an ordinary {!Sink.t}; the flow
    result is bit-identical with or without it (pure-observer contract,
    pinned by a qcheck property). *)

type t

val create : dir:string -> t
(** Creates [dir] (and parents) and opens [events.jsonl]. *)

val sink : ?progress:Progress.t -> t -> Sink.t
(** A live sink wired to this handle's metrics/trace/events. *)

val run_json : ?config:Json.t -> ?extra:(string * Json.t) list -> t -> Json.t
(** The [run.json] document as of now; [extra] appends caller fields
    (e.g. the flow's abort/failed/quarantine accounting). *)

val write : ?config:Json.t -> ?extra:(string * Json.t) list -> t -> unit
(** Write all four artifacts and close the event channel. Call once,
    after the run. *)

val quantile_of_buckets : (float * int) list -> int -> float -> float
(** Quantile estimate over [(upper_bound, count)] buckets with total
    count [n] — same estimator as {!Metrics.Histogram.quantile}. *)

val validate_run : Json.t -> (unit, string) result
(** Structural check used by [fst jsonlint]: object, the ["schema"] key
    is ["fst-run/2"], all top-level keys present. *)
