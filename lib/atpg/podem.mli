(** PODEM test-pattern generation over a combinational
    {!Fst_netlist.View.t}.

    Values are good/faulty pairs held as two {!Fst_logic.V3.t} arrays, one
    per machine; decisions are made only at free inputs, guided by SCOAP
    backtrace. Implication is three-valued and event-driven: after one
    full sweep, each step re-evaluates only the fanout cones of the inputs
    whose assignment changed, in level order. It never conflicts, so
    backtracking is driven by objective failure (fault unexcitable, empty
    D-frontier, no X-path). The D-frontier is built once per step from
    the nets that carry a fault effect (their gate consumers, plus the
    gates with a branch fault on a pin), not by scanning every gate, as a
    heap in observability order. Frontier gates are popped, and their
    X-paths searched, only as far as the choice of objective needs them.
    The search is complete unless a rare multi-site
    frontier case forces a heuristic prune, in which case exhaustion
    reports {!Aborted} rather than {!Untestable}. *)

open Fst_logic
open Fst_netlist
open Fst_fault

type result =
  | Test of (int * V3.t) list
      (** assignments (free-input net, binary value); unlisted inputs are
          don't-care *)
  | Untestable  (** proven: no input assignment detects the fault *)
  | Aborted  (** backtrack limit exceeded or completeness lost *)

(** Why a search stopped; every run stops for exactly one reason. *)
type stop =
  | Found  (** a test was found ({!Test}) *)
  | Exhausted  (** the complete search space held no test ({!Untestable}) *)
  | Backtrack_limit  (** [backtrack_limit] reached ({!Aborted}) *)
  | Dead_end
      (** exhausted after a backtrace dead end cost completeness
          ({!Aborted}) *)
  | Frontier_prune
      (** exhausted after a reachable D-frontier yielded no objective
          ({!Aborted}) *)
  | Abort_hook  (** [should_abort] returned true ({!Aborted}) *)

val all_stops : stop list

(** Position of a reason in {!all_stops}. *)
val stop_index : stop -> int

(** Snake-case name, as used in metric names. *)
val stop_name : stop -> string

type stats = {
  backtracks : int;
  decisions : int;
  implications : int;  (** calls to implication, one per search step *)
  stop : stop;
}

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

(** The search's implication engine, driven one step at a time, for tests
    that compare the effect set implication maintains with a full scan. *)
module Probe : sig
  type t

  val create :
    ?scoap:Fst_testability.Scoap.t -> View.t -> faults:Fault.t list -> t

  (* [assign] sets a free input ([X] unassigns it); [faulty] applies stem
     faults, not branch faults; [effect_nets] is in no particular order. *)
  val assign : t -> int -> V3.t -> unit
  val imply : t -> unit
  val good : t -> int -> V3.t
  val faulty : t -> int -> V3.t
  val effect_nets : t -> int list
  val detected : t -> bool
end
