(** A circuit viewed as a combinational test-generation model.

    The view fixes, for a given operating mode (for this project: scan
    mode), which nets are assignable inputs, which are tied to constants,
    and which points are observable. Flip-flop outputs listed as [free] act
    as pseudo primary inputs; flip-flop data pins listed as observation
    points act as pseudo primary outputs. Nets that are neither free nor
    fixed nor gate-driven (e.g. an uncontrollable flip-flop output) read as
    a permanent unknown. *)

open Fst_logic

type obs_point =
  | Onet of int  (** observe a net directly (a primary output) *)
  | Opin of { node : int; pin : int }
      (** observe what a node reads on one pin (a flip-flop data input) *)

type t = private {
  circuit : Circuit.t;
  free : bool array;  (** per net: assignable input *)
  fixed : V3.t option array;  (** per net: tied value *)
  observe : obs_point array;
}

(** [make c ~free ~fixed ~observe] builds a view; [free] and [fixed] must be
    disjoint and refer only to source nets (inputs, constants, flip-flop
    outputs). *)
val make :
  Circuit.t ->
  free:int list ->
  fixed:(int * V3.t) list ->
  observe:obs_point list ->
  t

(** [scan_mode c ~constraints] is the standard scan-mode combinational
    model: every primary input not bound by [constraints] and every
    flip-flop output is free; constrained inputs are fixed; the
    observation points are the primary outputs and every flip-flop data
    pin. *)
val scan_mode : Circuit.t -> constraints:(int * V3.t) list -> t

val obs_source_net : t -> obs_point -> int
val free_inputs : t -> int array
