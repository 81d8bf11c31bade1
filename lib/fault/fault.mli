(** Single stuck-at faults.

    A fault site is either a {e stem} (the output net of a driver) or a
    {e branch} (one fanin pin of one consumer node). Branch sites are only
    meaningful on nets with fanout greater than one; on fanout-one nets the
    branch fault is identical to the stem fault and is not enumerated. *)

open Fst_netlist

type site =
  | Stem of int  (** net id *)
  | Branch of { node : int; pin : int }
      (** fanin pin [pin] of node [node] *)

type t = { site : site; stuck : bool }  (** stuck at 1 when [stuck] *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** [site_net c f] is the net carrying the faulted signal (the source net of
    a branch site, the net itself for a stem). *)
val site_net : Circuit.t -> t -> int

val pp : Circuit.t -> t Fmt.t
val to_string : Circuit.t -> t -> string

(** [pin_fault c ~node ~pin ~stuck] is the fault on a fanin pin: the branch
    fault on that pin when the source net has fanout > 1, otherwise the
    stem fault of the source net (the two are the same fault). *)
val pin_fault : Circuit.t -> node:int -> pin:int -> stuck:bool -> t

(** [universe c] enumerates the full uncollapsed fault list: two stem faults
    per net plus two branch faults per fanin pin whose source net has
    fanout > 1. The order is deterministic and coincides with {!compare}
    order (stems ascending, then branches ascending). *)
val universe : Circuit.t -> t array

(** [collapse c faults] partitions [faults] into structural equivalence
    classes (gate-input-to-output equivalences through and/or/nand/nor/
    not/buf, chained through fanout-free regions) and returns one
    representative per class, preserving the input order of
    representatives. *)
val collapse : Circuit.t -> t array -> t array

(** [collapse_classes c faults] is the underlying partition: for each fault
    its representative's index in the returned representative array.

    Invariant: the representative of each class is its lowest member in
    {!compare} order, independent of the order of [faults] — two calls
    over permutations of the same fault set pick the same representatives.
    Representatives are emitted in the input order of their positions; for
    {!universe} input (already sorted by {!compare}) they are therefore
    sorted. *)
val collapse_classes : Circuit.t -> t array -> t array * int array

(** [seed f] is the net id at which the fault's influence enters the
    circuit: the stem net, or the faulted consumer node for a branch
    fault. Everything reachable from it through [Circuit.fanout]
    (crossing flip-flops, which re-emit divergence on the next cycle) is
    the fault's static fanout cone: the complete set of nets the faulty
    machine can ever differ on. The compiled simulation kernels map the
    seed through their net→slot permutation to clip evaluation to the
    cone. *)
val seed : t -> int
