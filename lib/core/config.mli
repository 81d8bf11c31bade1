(** One configuration record for the whole flow.

    [Config.t] collapses every knob a caller sets — the flow parameters,
    the parallelism, the wall-clock budget and the observability sink —
    into a single value built from {!default} with functional [with_*]
    setters:

    {[
      let cfg =
        Config.(
          default |> with_jobs 8 |> with_seq_backtrack 800
          |> with_time_budget (Some 120.0))
      in
      Flow.run ~config:cfg scanned scan_config
    ]}

    Everything in the record except [jobs], [sink], [preflight],
    [time_budget] and [on_error] is {e semantic}: it changes what the flow
    computes, and is part of {!fingerprint}.
    The fault simulator is not a knob: {!Fst_fsim.Fsim.Engine} has one
    back-end. *)

(** Failure policy for fault groups and engine calls during a flow:
    [`Fail_fast] (the default) retries nothing and re-raises the first
    failure, a step-3 group task's own exception at every [jobs];
    [`Keep_going] retries transient failures, quarantines what still
    fails into the {e failed} bucket of the abort accounting and
    completes everything else, so a poison fault group costs its own
    coverage and nothing more. Both policies run the same schedule, so
    with no failure they produce the same result. This is a policy knob,
    not a semantic one: it is excluded from the checkpoint fingerprint. *)
type on_error = [ `Fail_fast | `Keep_going ]

type t = {
  jobs : int;  (** worker domains for fsim/ATPG pools *)
  dist_floor_scale : float;
      (** scales the paper's [LARGE_DIST]/[MED_DIST]/[DIST] floors *)
  comb_backtrack : int;  (** PODEM backtrack limit, step-2 comb model *)
  seq_backtrack : int;  (** backtrack limit, step-3 grouped seq ATPG *)
  final_backtrack : int;  (** backtrack limit, step-3 final retries *)
  frames : int list;  (** time-frame ladder, step-3 groups *)
  final_frames : int list;  (** time-frame ladder, step-3 finals *)
  truncate_blocks : float option;
      (** keep only this fraction of step-2 scan blocks *)
  random_blocks : int;  (** random scan blocks appended in step 2 *)
  random_seed : int64;  (** seed for those blocks *)
  seq_fault_seconds : float;  (** per-fault deadline, step-3 groups *)
  final_fault_seconds : float;  (** per-fault deadline, step-3 finals *)
  sca_prune : bool;
      (** phase-0 static analysis ({!Fst_sca.Sca}): prune statically
          proven untestable faults before step-2 ATPG (default [true];
          the proven faults land in [Flow.result.untestable_static]) *)
  time_budget : float option;
      (** whole-flow wall-clock budget in seconds ([None] = unlimited) *)
  on_error : on_error;  (** failure policy (default [`Fail_fast]) *)
  sink : Fst_obs.Sink.t;  (** observability sink (default null) *)
  preflight : bool;  (** lint gate before phase 1 *)
}

(** The defaults every knob documents; identical to the historical
    flow parameter defaults. *)
val default : t

(** Clamped to at least 1. *)
val with_jobs : int -> t -> t

val with_dist_floor_scale : float -> t -> t
val with_comb_backtrack : int -> t -> t
val with_seq_backtrack : int -> t -> t
val with_final_backtrack : int -> t -> t
val with_frames : int list -> t -> t
val with_final_frames : int list -> t -> t
val with_truncate_blocks : float option -> t -> t
val with_random_blocks : int -> t -> t
val with_random_seed : int64 -> t -> t
val with_seq_fault_seconds : float -> t -> t
val with_final_fault_seconds : float -> t -> t
val with_sca_prune : bool -> t -> t
val with_time_budget : float option -> t -> t
val with_on_error : on_error -> t -> t
val with_sink : Fst_obs.Sink.t -> t -> t
val with_preflight : bool -> t -> t

(** Parses the CLI spellings ["fail-fast"] / ["keep-going"]. *)
val on_error_of_string : string -> on_error option

(** [fingerprint t] is a stable hex digest of the {e semantic} knobs
    only — everything that changes what the flow computes. [jobs]
    (result-identical parallelism), [sink]/[preflight] (pure observers)
    and [time_budget]/[on_error] (degradation policy) are excluded, so two
    configurations that must produce bit-identical reports share a
    fingerprint. This is the
    Config half of the {!Fst_serve.Cache} content address, and the
    Config contribution to the {!Flow} checkpoint fingerprint (which
    additionally ties in [jobs] and the circuit). *)
val fingerprint : t -> string

(** [equal_semantic a b] compares every field except [sink] (which holds
    closures and mutexes). The equality the [of_json]/[to_json]
    round-trip property is stated in. *)
val equal_semantic : t -> t -> bool

(** [budget t] is the {!Fst_exec.Budget.t} for [t.time_budget]
    ({!Fst_exec.Budget.unlimited} when [None]). The clock starts when this
    is called. *)
val budget : t -> Fst_exec.Budget.t

(** [of_cli ()] builds a configuration from the command-line surface:
    [jobs <= 0] meaning "all cores", the distance-floor [scale], optional
    time budget, failure policy, preflight flag and sink. When [on_error] is not given it defaults to [`Keep_going] for
    budgeted runs (a deadline-bound run should ship its partial
    coverage, not die on one poison group) and [`Fail_fast] otherwise. *)
val of_cli :
  ?jobs:int ->
  ?scale:float ->
  ?time_budget:float ->
  ?on_error:on_error ->
  ?preflight:bool ->
  ?sink:Fst_obs.Sink.t ->
  unit ->
  t

(** Every semantic field (plus [jobs], [time_budget], [on_error] and
    [preflight]) as JSON — echoed into flow event logs so a result is
    attributable to its configuration. The [sink] itself is not
    serializable and is omitted. *)
val to_json : t -> Fst_obs.Json.t

(** [of_json j] is the exact inverse of {!to_json}: every key {!to_json}
    emits is accepted (with the same spelling and type), absent keys
    take their {!default}, and an unknown key is rejected with an
    [Error] naming it — a mistyped knob in a [submit] payload must fail
    loudly, not silently run with defaults. Values the flow cannot run
    or could not bound are rejected the same way: [frames]/[final_frames]
    entries outside [1, 64] and [random_blocks] outside [0, 10000] (each
    frame is one unrolled copy of the circuit). Numeric fields additionally
    accept JSON integers where {!to_json} emits floats. The returned
    config always carries the null sink; round-trip:
    [of_json (to_json c)] equals [c] up to [sink]
    ({!equal_semantic}). *)
val of_json : Fst_obs.Json.t -> (t, string) result
