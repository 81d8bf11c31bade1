(** Gate-level sequential circuits.

    A circuit is a flat array of nodes; node [i] drives net [i] (single
    driver per net, net ids and node ids coincide). D flip-flops share one
    implicit clock, as in the ISCAS'89 benchmarks. Combinational loops are
    rejected at construction; loops through flip-flops are allowed. *)

open Fst_logic

type node =
  | Input  (** primary input *)
  | Const of V3.t  (** tie cell (0, 1, or an explicit unknown source) *)
  | Gate of Gate.t * int array  (** logic gate with fanin net ids *)
  | Dff of int  (** flip-flop; the argument is the data-input net *)

type t = private {
  name : string;
  nodes : node array;
  net_names : string array;
  outputs : int array;  (** primary-output net ids *)
  inputs : int array;  (** net ids driven by [Input], in creation order *)
  dffs : int array;  (** net ids driven by [Dff], in creation order *)
  fanout : int array array;  (** node ids reading each net *)
  topo : int array;
      (** every node id in evaluation order: sources (inputs, constants,
          flip-flop outputs) first, then gates such that fanins precede *)
  level : int array;  (** combinational depth per net; sources are level 0 *)
}

exception Combinational_cycle of string
exception Malformed of string

(** [make ~name ~nodes ~net_names ~outputs] validates the node table
    (arities, fanin ranges, name uniqueness), computes fanout, a topological
    order and levels.
    @raise Combinational_cycle if the gate subgraph is cyclic.
    @raise Malformed on arity or range errors. *)
val make :
  name:string ->
  nodes:node array ->
  net_names:string array ->
  outputs:int array ->
  t

(** [assemble ~name ~nodes ~net_names ~outputs ~fanout ~topo ~level]
    builds a circuit from parts its caller derived itself, without the
    checks and the derivations of {!make}: the caller vouches that the
    node table is valid and that [fanout], [topo] and [level] are what
    [make] would compute, up to the choice of topological order. Time-frame
    models ([Unroll] in sequential ATPG) are built this way from their original
    circuit. *)
val assemble :
  name:string ->
  nodes:node array ->
  net_names:string array ->
  outputs:int array ->
  fanout:int array array ->
  topo:int array ->
  level:int array ->
  t

(** [combinational_cycles nodes] enumerates the cyclic strongly-connected
    components of the gate subgraph of a raw node table (which [make] would
    reject). One representative cycle is returned per cyclic SCC — the
    shortest loop through the component's smallest net id — as net ids in
    signal-flow order (each net drives the next; the last drives the
    first). Sorted by first net id; [[]] iff the gate subgraph is acyclic.
    Usable before [make], so a linter can report {e every} cycle instead of
    aborting on the first. *)
val combinational_cycles : node array -> int list list

val num_nets : t -> int

(** [gate_count c] counts logic gates (all [Gate] nodes). *)
val gate_count : t -> int

val dff_count : t -> int
val input_count : t -> int

(** [node c n] is the driver of net [n]. *)
val node : t -> int -> node

(** [fanins c n] are the fanin nets of node [n] ([||] for sources). *)
val fanins : t -> int -> int array

val net_name : t -> int -> string

(** [find_net c name] is the net with the given name.
    @raise Not_found if absent. *)
val find_net : t -> string -> int

val is_input : t -> int -> bool
val is_dff : t -> int -> bool
val is_output : t -> int -> bool

(** [max_fanin c] is the largest gate fanin arity. *)
val max_fanin : t -> int

(** [depth c] is the largest combinational level. *)
val depth : t -> int

(** [pp_stats ppf c] prints a one-line summary (nets, gates, FFs, PIs, POs,
    depth). *)
val pp_stats : t Fmt.t
