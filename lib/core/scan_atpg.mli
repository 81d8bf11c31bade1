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
  undetected : int;  (** [targeted = detected + untestable + undetected] *)
  vectors : int;
}

(** [run scanned config ~already_detected] tests the functional logic
    through the scan chain. The PODEM backtrack limit (200) and the 32
    random capture blocks (seed [0xCAFE]) are fixed. [already_detected]
    lists faults credited to the chain-testing phase (dropped from the
    target list and counted as covered in {!coverage}). *)
val run : Circuit.t -> Scan.config -> already_detected:Fault.t list -> result

(** [coverage ~chain_detected ~result ~total] is the overall fault
    coverage fraction over the whole universe. *)
val coverage : chain_detected:int -> result:result -> total:int -> float

(** [testable_coverage ~chain_detected ~result ~total] excludes the faults
    proven untestable in the functional model (the number a production
    tool quotes). *)
val testable_coverage :
  chain_detected:int -> result:result -> total:int -> float
