(** The subsequent testing phase the paper's flow enables.

    Once the functional scan chain itself has been verified ({!Flow}), the
    rest of the circuit is tested the standard scan way: load a state
    through the chain, apply one functional capture cycle, unload the
    response. This module runs combinational ATPG over the functional-mode
    model (only the scan-enable is pinned low; everything else — including
    the inputs TPI constrains during scan mode — is usable), realizes each
    test as a load/capture/unload sequence, fault-simulates the set with
    dropping, and reports chip-level coverage.

    Faults already detected during chain testing are passed in and dropped
    from the target list, exactly as the paper prescribes ("these detected
    faults can be dropped from the fault list for the subsequent phase"). *)

open Fst_netlist
open Fst_fault
open Fst_tpi

type result = {
  targeted : int;  (** faults attacked in this phase *)
  detected : int;
  untestable : int;
  undetected : int;
  aborted : int;
      (** faults whose ATPG attempt was denied by [deadline] and that no
          other sequence detected *)
  failed : int;
      (** faults quarantined under [`Keep_going] (0 under [`Fail_fast]);
          [targeted = detected + untestable + undetected + aborted +
          failed] *)
  vectors : int;
  seconds : float;  (** wall-clock time ({!Fst_exec.Clock}) *)
}

(** [run ?config ?deadline scanned config ~already_detected] tests the
    functional logic through the scan chain. [config] is the unified
    {!Config.t} (default {!Config.default}); this phase reads its [jobs],
    [on_error] ([`Keep_going] isolates per-fault ATPG failures — the fault
    lands in [failed] unless another sequence detects it — and retries the
    fault-simulation pass, quarantining every unproven fault when it
    permanently fails) and [sink] (a phase span, a progress heartbeat
    during ATPG, and fault-simulation metrics). The PODEM backtrack limit
    (200) and the 32 random capture blocks (seed [0xCAFE]) are fixed.
    [already_detected] lists faults credited to the chain-testing phase
    (dropped from the target list and counted as covered in {!coverage}).
    A tripped [deadline] (default {!Fst_exec.Clock.never}) skips the
    remaining ATPG attempts; the skipped faults still ride through fault
    simulation and any left undetected are reported as [aborted]. *)
val run :
  ?config:Config.t ->
  ?deadline:Fst_exec.Clock.deadline ->
  Circuit.t ->
  Scan.config ->
  already_detected:Fault.t list ->
  result

(** [coverage ~chain_detected ~result ~total] is the overall fault
    coverage fraction over the whole universe. *)
val coverage : chain_detected:int -> result:result -> total:int -> float

(** [testable_coverage ~chain_detected ~result ~total] excludes the faults
    proven untestable in the functional model (the number a production
    tool quotes). *)
val testable_coverage :
  chain_detected:int -> result:result -> total:int -> float
