(** OpenMetrics text exposition for a {!Metrics} registry.

    Counters expose as [name_total], gauges as [name], float
    accumulators as [name_total] counters, histograms as cumulative
    [name_bucket{le="..."}] series (explicit [+Inf] bucket) plus
    [name_count] / [name_sum]. Names are sanitized (characters outside
    [[a-zA-Z0-9_:]], such as [.], map to [_]); the
    exposition ends with the mandatory [# EOF] line. *)

val expose : Metrics.t -> string

val validate : string -> (unit, string) result
(** Structural check used by [fst jsonlint] on [.prom] artifacts:
    every non-comment line parses as [name{labels} value], [# TYPE]
    lines are well-formed with a known type, cumulative bucket counts
    per histogram are monotone non-decreasing, and the text ends with
    [# EOF]. *)
