(** Section 3 of the paper: finding the faults that affect the functional
    scan chain.

    For every fault, the forward implication cone under scan-mode constants
    is computed (event-driven three-valued propagation of the faulty
    machine against the good scan-mode values). The chain locations the
    fault touches are collected and the fault is placed in one of three
    categories:

    - {b Category 1}: a net on the scan chain becomes a constant 0/1 — the
      alternating sequence detects it. (Extension over the paper: a binary
      flip of an xor-family side input, which inverts the segment without
      constants, is also category 1 since the alternating response is
      complemented.)
    - {b Category 2}: a side input of the chain becomes unknown — the
      chain's behaviour is nondeterministic and the alternating sequence
      may miss it. These are the {e hard} faults.
    - {b Category 3}: the chain is untouched.

    Category 2 takes priority when both occur, as in the paper. *)

open Fst_netlist
open Fst_fault
open Fst_tpi

type category = Cat1 | Cat2 | Cat3

type location_kind = Forced_constant | Side_unknown | Side_inverted

type info = {
  fault : Fault.t;
  category : category;
  locations : (int * int * location_kind) list;
      (** (chain index, segment index, kind), ordered by (chain, segment),
          de-duplicated; empty iff category 3 *)
}

type t = {
  infos : info array;  (** parallel to the fault array given to [run] *)
  easy : int array;  (** indices of category-1 faults *)
  hard : int array;  (** indices of category-2 faults *)
  affecting : int;  (** category 1 + category 2 *)
}

(** [run c config faults] classifies every fault of [faults] against the
    scan chains of [config]. *)
val run : Circuit.t -> Scan.config -> Fault.t array -> t
