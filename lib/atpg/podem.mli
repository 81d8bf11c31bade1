(** PODEM test-pattern generation over a combinational
    {!Fst_netlist.View.t}.

    Values are good/faulty pairs held as two {!Fst_logic.V3.t} arrays, one
    per machine; decisions are made only at free inputs, guided by SCOAP
    backtrace; implication is three-valued resimulation, so it never
    conflicts and backtracking is driven by objective failure (fault
    unexcitable, empty D-frontier, no X-path). The search is complete
    unless a rare multi-site frontier case forces a heuristic prune, in
    which case exhaustion reports {!Aborted} rather than {!Untestable}. *)

open Fst_logic
open Fst_netlist
open Fst_fault

type result =
  | Test of (int * V3.t) list
      (** assignments (free-input net, binary value); unlisted inputs are
          don't-care *)
  | Untestable  (** proven: no input assignment detects the fault *)
  | Aborted  (** backtrack limit exceeded or completeness lost *)

type stats = { backtracks : int; decisions : int; implications : int }

(** [run view ~faults] searches for a test detecting the fault injected at
    all the given sites simultaneously (a multi-site list models the same
    physical fault replicated across time frames; pass a singleton for an
    ordinary fault).

    @param backtrack_limit default 1000.
    @param should_abort cooperative abort hook, polled between backtracks;
    once it returns true the search reports {!Aborted} at the next
    backtrack. Callers derive it from a wall-clock deadline and/or a
    {!Fst_exec.Pool.token}, so one stuck target cannot pin a domain past
    its budget.
    @param scoap computed from [view] when not supplied (pass it when
    running many faults on one view). *)
val run :
  ?backtrack_limit:int ->
  ?should_abort:(unit -> bool) ->
  ?scoap:Fst_testability.Scoap.t ->
  View.t ->
  faults:Fault.t list ->
  result * stats
