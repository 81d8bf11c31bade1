(** The complete functional scan chain testing flow (sections 2–5).

    Starting from a circuit that already carries functional scan chains
    (see {!Fst_tpi.Tpi.insert}), the flow:

    + classifies every collapsed fault ({!Classify}),
    + statically proves hard faults untestable where possible
      ({!Fst_sca.Sca}: constant propagation, the implication graph,
      FIRE-style single-net conflicts and dominance) and prunes them from
      every subsequent phase — the [Untestable_static] verdict
      ([Config.sca_prune], on by default),
    + screens the remaining hard (category-2) faults with combinational
      ATPG on the scan-mode model followed by sequential fault simulation
      of the realized scan sequences,
    + targets the remainder with grouped sequential ATPG on models with
      enhanced chain controllability/observability ({!Group}), retrying the
      survivors individually with a larger budget, and proving
      undetectability through the relaxed combinational model where
      possible.

    Long runs are governed by an optional monotonic wall-clock budget
    ({!Fst_exec.Budget}): each phase receives a cumulative share of the
    total, a tripped deadline cancels the remaining work cooperatively
    (partial results are kept, denied faults are reported as aborted), and
    the flow can persist its progress to a versioned checkpoint file and
    resume from it after a crash or kill. *)

open Fst_netlist
open Fst_fault
open Fst_tpi

(** Raised by {!run} when [Config.preflight] is on and the static analyzer
    found error-severity diagnostics (the list, in
    {!Fst_lint.Diagnostic.compare} order). *)
exception Preflight_failed of Fst_lint.Diagnostic.t list

(** Step 2's effort; its outcome is in [verdicts]. *)
type step2 = {
  vectors : int;  (** test sequences generated (after truncation) *)
  atpg_seconds : float;
  fsim_seconds : float;
  curve : (int * int) array;
      (** (vectors simulated, cumulative detected) when captured *)
}

(** Step 3's effort (groups and final targets); its outcome is in
    [verdicts]. *)
type step3 = {
  group_circuits : int;  (** models built for groups 1–3 *)
  final_circuits : int;  (** models built for the final faults *)
  seconds : float;
}

(** One phase's abort accounting under a wall-clock budget. *)
type phase_aborts = {
  phase : string;  (** {!Fst_exec.Budget.phase_name} of the phase *)
  budget_exhausted : bool;
      (** the phase's deadline tripped before its work was complete *)
  atpg_aborts : int;
      (** ATPG attempts that ended in an abort (backtrack limit, per-fault
          deadline, or phase deadline) during this phase *)
  cancelled_groups : int;
      (** step-3 groups (or final-targeting faults) whose attempt was
          denied outright by the tripped deadline *)
  failed : int;
      (** hard faults quarantined during this phase under [`Keep_going]:
          their attempt raised (directly, or through a cohort-failed
          group or engine call) rather than being denied by the budget *)
}

(** Aggregate ATPG engine statistics over the whole flow. Accumulated
    deterministically: statistics produced on pool domains are committed
    on the main domain in wave order, and the totals ride inside
    checkpoints, so a resumed run reports the same numbers as an
    uninterrupted one. *)
type atpg_stats = {
  podem_runs : int;  (** individual PODEM invocations *)
  podem_backtracks : int;
  podem_decisions : int;
  podem_implications : int;
  podem_aborted_limit : int;  (** aborts caused by the backtrack limit *)
  podem_aborted_deadline : int;  (** aborts caused by a tripped deadline *)
  seq_runs : int;  (** PODEM runs inside sequential (unrolled) ATPG *)
  seq_backtracks : int;
}

(** The one outcome of a hard (category-2) fault: the columns of the
    paper's Table 3. Every hard fault has exactly one verdict, so the
    buckets partition the hard faults by construction. *)
type verdict =
  | Detected_step2
      (** by the step-2 fault simulation of the scan-mode tests *)
  | Detected_step3
      (** by a realized step-3 sequence (a group's or a final target's) *)
  | Untestable_static
      (** proven by the phase-0 static analysis ({!Fst_sca.Sca}) and pruned
          before any ATPG was spent on it; never when [Config.sca_prune]
          is off. Each has a machine-checkable proof
          ({!Fst_sca.Sca.check}); rerun [Fst_sca.Sca.analyze] on the
          scan-mode view to retrieve them. *)
  | Untestable_step2  (** proven by step 2's combinational PODEM *)
  | Untestable_step3  (** proven through step 3's relaxed model *)
  | Undetected  (** survived the whole flow after its full attempt *)
  | Aborted
      (** survived, and the wall-clock budget denied it an attempt in
          some phase *)
  | Failed
      (** quarantined by the [`Keep_going] containment machinery: its
          attempt raised (directly, or through a cohort-failed group or
          engine call). Never under [`Fail_fast]. *)

(** A run's outcome and its ledger. The outcome is [verdicts], one per
    hard fault; every count of the paper's Table 3 is a count of
    verdicts ({!count}). The ledger is [aborts] and [atpg]: what each
    phase was denied, aborted or quarantined, and what the ATPG engines
    spent. The flow keeps both in one place and persists them in every
    checkpoint, so a resumed run reports what an uninterrupted one
    would. *)
type result = {
  scanned : Circuit.t;
  config : Scan.config;
  faults : Fault.t array;  (** collapsed fault universe *)
  classify : Classify.t;
  classify_seconds : float;
  step2 : step2;
  step3 : step3;
  verdicts : verdict array;
      (** per hard fault, indexed by position in [classify.hard] *)
  aborts : phase_aborts list;
      (** one entry per {!Fst_exec.Budget.phase}, in flow order: classify,
          step2-atpg, step2-fsim, step3, finals *)
  atpg : atpg_stats;
}

(** [count r v] is the number of hard faults whose verdict is [v]. No
    verdict is given [Detected_step2], [Untestable_step2] or
    [Untestable_static] after step 2, so the hard faults step 2 left
    undetected are those with none of these three. *)
val count : result -> verdict -> int

(** [faults_with r v] is the hard faults whose verdict is [v], in
    ascending [classify.hard] order. *)
val faults_with : result -> verdict -> Fault.t list

(** [run ?config ?budget ?checkpoint ?resume ?on_checkpoint scanned config]
    executes the flow on an already-scanned circuit.

    [config] is the unified {!Config.t} (default {!Config.default}): every
    flow knob, the parallelism, the wall-clock budget and the
    observability sink in one value; with a live sink the effective
    configuration is echoed as a ["config"] event. [jobs = 1] reproduces
    the single-core flow exactly; step-2 results are identical for every
    [jobs] value, and in step 3 [jobs > 1] plans the sequential-ATPG groups
    in deterministic waves, which can change (only) how detections are
    credited between groups. The default {!Fst_obs.Sink.null} sink compiles
    instrumentation down to a branch, so unobserved [jobs = 1] runs are
    bit-identical to the seed; neither the sink nor [preflight] (both pure
    observers) is part of the checkpoint fingerprint.

    [budget] (default: [config.time_budget], else
    {!Fst_exec.Budget.unlimited}) bounds the whole run in
    monotonic wall-clock time; when a phase overruns its cumulative share,
    the remaining work of that phase is cancelled cooperatively and
    accounted in [aborts] and the [Aborted] verdict.

    [checkpoint] names a file to which the flow atomically persists its
    progress after every phase and every step-3 wave. With [resume = true]
    the flow first tries to load that file — a checkpoint written for a
    different circuit, configuration, parameter set, or format version is
    ignored — and continues from the last completed stage; a resumed
    [jobs = 1] run produces results identical to an uninterrupted one.
    [on_checkpoint] is called with a stage label ("classify", "sca",
    "step2-atpg", "step2-fsim", "step3-wave", "finished") after each save.

    [on_resume] is called once when [resume = true] and a checkpoint path
    was given: [`Loaded src] says which file the state came from
    ({!Checkpoint.Primary} or the [.prev] last-good rotation), [`Failed
    err] says exactly why no state could be loaded
    ({!Checkpoint.error}: missing, corrupt, fingerprint or version
    mismatch) before the flow starts fresh.

    [run] lowers the process's GC [space_overhead] to 80 when it is
    higher, and leaves it there: at the OCaml 5.1 default (120) the peak
    major heap grows from one flow to the next in a long-lived process. *)
val run :
  ?config:Config.t ->
  ?budget:Fst_exec.Budget.t ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?on_checkpoint:(string -> unit) ->
  ?on_resume:
    ([ `Loaded of Checkpoint.source | `Failed of Checkpoint.error ] -> unit) ->
  Circuit.t ->
  Scan.config ->
  result

(** {2 Step-2 fault simulation} *)

type windows = {
  outcome : (int * int) option array;
      (** per fault: the first detecting (block, cycle), or [None] *)
  curve : (int * int) array;
      (** (vectors simulated, cumulative detected) for 0 .. all blocks —
          the {!step2} [curve] *)
  late : bool;  (** the budget ran out before every block was simulated *)
  failed : int array;
      (** faults still pending when a window's engine call failed for
          good under [keep_going] (the quarantined cohort), ascending *)
}

(** [fsim_windows c ~faults blocks] is step 2's sequential fault
    simulation of [blocks], in order, with cross-block fault dropping:
    one {!Fst_fsim.Fsim.Engine.detect_dropping} call per window of up to
    {!Fst_fsim.Fsim.Engine.max_group} blocks on the faults still
    pending, observed at the primary outputs. [outcome] equals one
    dropping pass over all blocks, for every [jobs].

    [budget_left] is polled before each window; once it is negative the
    loop stops with [late] set, keeping the detections of the windows
    already run. With [keep_going] an engine call is retried ({!Fst_exec.Retry}), and one that keeps
    failing ends the loop with its pending faults in [failed]; without it
    the exception propagates. A live [sink] counts [flow.step2.blocks],
    emits a heartbeat per window (showing [failed_before] quarantined
    faults) and a [cohort_failed] event. *)
val fsim_windows :
  sink:Fst_obs.Sink.t ->
  jobs:int ->
  keep_going:bool ->
  budget_left:(unit -> float) ->
  failed_before:int ->
  Circuit.t ->
  faults:Fault.t array ->
  Fst_fsim.Fsim.stimulus array ->
  windows

(** [total_faults r], [affecting r]: Table-2/3 denominators. *)
val total_faults : result -> int

val affecting : result -> int

(** [chain_detected_faults r] is every fault the chain-testing phase
    credits as detected (category 1 via the alternating sequence, plus the
    hard faults detected in steps 2–3) — the list to drop before the
    subsequent logic-test phase ({!Scan_atpg}). *)
val chain_detected_faults : result -> Fault.t list
