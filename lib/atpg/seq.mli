(** Sequential ATPG by iterated time-frame expansion.

    Given a fault, controllability/observability assumptions on the
    flip-flops (derived by the caller from the fault-free portions of the
    scan chain) and the scan-mode input constraints, the driver unrolls the
    circuit for increasing frame counts and runs {!Podem} on each model
    until a test is found or the frame budget is exhausted.

    A returned test prescribes the initial state of the controllable
    flip-flops and per-frame values for the free primary inputs; the caller
    realizes it as a scan sequence and confirms it by fault simulation. *)

open Fst_logic
open Fst_netlist
open Fst_fault

type test = {
  frames : int;
  init_state : (int * V3.t) list;  (** (flip-flop net, initial value) *)
  pi_frames : (int * V3.t) list array;  (** per frame: (input net, value) *)
}

type result = Seq_test of test | Seq_aborted

type stats = {
  runs : int;
  backtracks : int;
  stops : int array;
      (** per {!Podem.stop_index}: how many of the [runs] stopped for that
          reason *)
  build_s : float;  (** wall seconds building models: unrolling and SCOAP *)
  search_s : float;  (** wall seconds in the PODEM searches *)
  models_built : int;
      (** unrolled models built (each with its SCOAP); a model taken
          from the [memo] is not counted *)
}

(** The models (unrolled circuit plus its SCOAP) built by earlier runs,
    by frame count. A memo may only be shared by runs on the same
    circuit with the same [constraints], [controllable_ff] and
    [observable_ff]; {!Podem} only reads a model, so a shared model
    gives the same search as a fresh one. *)
type memo

val memo : unit -> memo

(** @param should_abort cooperative abort hook: polled before each frame
    count and between PODEM backtracks, so a tripped wall-clock deadline
    or a cancellation token ({!Fst_exec.Pool.token}) stops the search
    promptly instead of letting one target pin a domain.
    @param memo takes each frame count's model from the memo, building
    and adding it on a miss; without one every frame count is built. *)
val run :
  ?should_abort:(unit -> bool) ->
  ?memo:memo ->
  Circuit.t ->
  constraints:(int * V3.t) list ->
  controllable_ff:(int -> bool) ->
  observable_ff:(int -> bool) ->
  fault:Fault.t ->
  frames_list:int list ->
  backtrack_limit:int ->
  result * stats
