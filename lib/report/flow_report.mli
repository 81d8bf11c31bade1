(** The flow report as a first-class value.

    [Flow_report.t] is the pure-data summary of one {!Fst_core.Flow.run}
    — every number and fault name the historical [fst flow] report
    printed, detached from the live [Flow.result] (which holds the
    circuit and fault arrays and cannot travel over a wire or live in a
    cache). One value, three consumers:

    - [fst flow] renders it with {!to_text},
    - the serve daemon stores {!to_json} in the content-addressed cache
      and ships it in [result] responses,
    - [fst submit] re-renders the shipped JSON with {!of_json} +
      {!to_text}, so the client's text report is byte-identical to what
      a local run would have printed.

    {!to_text} is deterministic: rendering the same value always
    produces the same bytes, which is what makes "a cache hit returns a
    bit-identical report" a testable contract. *)

(** One phase's abort accounting: the flow's own record. *)
type phase_aborts = Fst_core.Flow.phase_aborts = {
  phase : string;
  budget_exhausted : bool;
  atpg_aborts : int;
  cancelled_groups : int;
  failed : int;
}

type t = {
  circuit : string;
  total : int;  (** collapsed fault universe *)
  affecting : int;  (** faults affecting the chain *)
  easy : int;
  hard : int;
  untestable_static : int;
  step2_detected : int;
  step2_untestable : int;
  step2_vectors : int;
  step2_cpu_s : float;
  step3_detected : int;
  step3_untestable : int;
  step3_group_circuits : int;
  step3_final_circuits : int;
  step3_cpu_s : float;
  podem_runs : int;
  podem_backtracks : int;
  podem_decisions : int;
  podem_implications : int;
  podem_aborted_limit : int;
  podem_aborted_deadline : int;
  seq_runs : int;
  seq_backtracks : int;
  undetected : string list;  (** rendered fault names, report order *)
  failed : string list;
  aborted_faults : int;
  failed_faults : int;
  phases : phase_aborts list;
}

val of_result : Fst_core.Flow.result -> t

(** [verdict_mismatches t r] names each count of [t] that differs from
    the number of hard faults of [r] with the matching
    {!Fst_core.Flow.verdict}: step 2/3 detected and untestable,
    [untestable_static], [aborted_faults], [failed_faults] and
    [undetected]. Empty when [t] is [of_result r]; since every hard fault
    has one verdict, the counts then partition the hard faults. *)
val verdict_mismatches : t -> Fst_core.Flow.result -> string list

(** Aggregates over [phases]. *)
val budget_exhausted : t -> bool

val atpg_aborts : t -> int
val cancelled_groups : t -> int

(** The historical [fst flow] stdout rendering: the report table, the
    greppable [aborts:] lines, and one [undetected:]/[failed:] line per
    surviving fault. Ends with a newline. *)
val to_text : t -> string

val to_json : t -> Fst_obs.Json.t

(** One [phases] entry of {!to_json}. *)
val phase_to_json : phase_aborts -> Fst_obs.Json.t

(** Inverse of {!to_json}; [Error] names the missing or ill-typed
    field. *)
val of_json : Fst_obs.Json.t -> (t, string) result
