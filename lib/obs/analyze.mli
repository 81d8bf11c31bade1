(** Pure post-run analysis over the {!Artifacts} set.

    Everything here operates on parsed values — the only I/O is in the
    [load_*] helpers — so tests drive the analyses with synthetic runs
    and spans. Consumed by [fst analyze]. *)

(** {1 Parsed run.json} *)

type hist = { count : int; sum : float; p50 : float; p90 : float; p99 : float }

type run = {
  wall_s : float;
  phases : (string * float) list;  (** bare phase name → wall seconds *)
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist) list;
  config : Json.t;
}

type span = {
  name : string;
  cat : string;
  tid : int;
  t0 : float;
  t1 : float;
  args : (string * Json.t) list;
}
(** One complete trace event ([trace.json]), times in seconds relative
    to trace start. *)

val load_run : string -> (run, string) result
(** Read and parse one [run.json] file, validated with
    {!Artifacts.validate_run} first. *)

val load_dir : string -> (run * span list, string) result
(** Read an artifact directory: [run.json] (required) plus the spans of
    [trace.json] (missing/unparsable trace → no spans, not an error). *)

(** {1 Critical path} *)

type critical_path = {
  cp_length_s : float;  (** longest chain of non-overlapping spans *)
  cp_total_s : float;
      (** total work: per tid, the length of the union of its spans, so
          nested spans count once; summed over tids *)
  cp_window_s : float;  (** max end − min start over all spans *)
  cp_chain : span list;  (** the chain, chronological *)
  cp_amdahl : float;  (** total / length — parallel speedup ceiling *)
}

val critical_path : span list -> critical_path
(** DP over spans sorted by end time: [cp(i) = dur(i) + max { cp(j) |
    end(j) <= start(i) }], prefix-max + binary search, O(n log n). The
    chain is a set of pairwise non-overlapping spans, so [cp_length_s <=
    cp_window_s] and [cp_length_s <= cp_total_s] always hold (the qcheck
    properties in [test_analyze.ml]). *)

(** {1 Self-vs-child time & hotspots} *)

type node_stat = {
  ns_name : string;
  ns_count : int;
  ns_total_s : float;
  ns_self_s : float;  (** total minus time covered by nested child spans *)
}

val self_times : span list -> node_stat list
(** Aggregated per span name, sorted by self time descending. Nesting is
    computed per tid with a containment stack. *)

val hotspots : ?k:int -> span list -> node_stat list
(** Top-[k] (default 10) of {!self_times}. *)

(** {1 Per-domain utilization} *)

type util = {
  u_wid : int;
  u_busy_s : float;
  u_busy_frac : float;  (** busy over the shared observation window *)
  u_chunks : int;
  u_steals : int;
  u_gaps : (float * float) list;  (** idle gaps longer than [gap_s] *)
}

val utilization : ?gap_s:float -> span list -> util list
(** Per-worker busy time, fraction of the window the [pool] spans cover,
    chunk and steal counts, and idle-gap detection ([gap_s] default
    1 ms), sorted by worker id. Reads only spans of category [pool]
    ({!Fst_exec.Pool} writes one per executed chunk), taking the worker
    from their [wid] arg and the steal flag from [stolen]; busy seconds
    and counts therefore match the run's [pool.domain<k>.busy_s] and
    [pool.<label>.chunks]/[steals] metrics. *)

(** {1 Structured diff & regression gate} *)

type verdict = Regression | Improvement | Unchanged

type diff_entry = {
  d_key : string;  (** ["wall_s"], ["phase:<name>"], ["p99:<hist>"],
                       ["counter:<name>"] *)
  d_base : float;
  d_cur : float;
  d_delta_frac : float;  (** [(cur − base) / base]; [0] when base = 0 *)
  d_verdict : verdict;
  d_gated : bool;  (** time-like metrics gate; counters are informational *)
}

val diff : ?threshold:float -> ?min_s:float -> run -> run -> diff_entry list
(** Relative-threshold comparison (default 20%). Pairs where both sides
    sit under the [min_s] floor (default 1 ms) are [Unchanged] by
    definition — microsecond phases never produce noise verdicts.
    [diff r r] yields zero deltas and no regressions (symmetric-zero,
    pinned by a qcheck property). *)

val regressions : diff_entry list -> diff_entry list
(** The gated [Regression] entries; nonempty ⇒ [fst analyze] exits 1. *)

(** {1 Rendering} *)

val render_report : ?k:int -> run -> span list -> string
(** The human report: summary line, phase table, per-domain utilization,
    critical path + Amdahl ceiling, top-[k] hotspots. *)

val render_diff : diff_entry list -> string
val diff_to_json : diff_entry list -> Json.t
