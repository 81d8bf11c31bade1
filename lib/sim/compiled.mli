(** One-time compilation of a {!Circuit.t} into a flat, levelized,
    cache-friendly representation shared by every simulation kernel.

    Nets are renumbered into {e slot space}: level-0 nodes (inputs,
    constants, flip-flop outputs) occupy slots [0 .. n_level0-1] in net
    order, then gates follow level by level (ties broken by net id), so
    gate [k]'s output lives at slot [n_level0 + k] and a left-to-right
    sweep of the gate arrays is automatically levelized. Gate structure is
    stored as contiguous int arrays (opcode per gate, fanin CSR, FF
    next-state map, fanout CSR), and net values as one {!V3b} code byte
    per slot in a [Bytes.t].

    Every value vector has length [n_slots + 1]: the spare slot [n_slots]
    is caller-owned scratch (the fault simulator stores a stuck constant
    there and redirects one fanin pool entry at it to model a branch
    fault).

    The bit-plane kernel ({!Planes}) runs a flat {e plane program}: per
    gate, in sweep order, the words [op; dst; n; fanin_1 .. fanin_n]. A
    whole-netlist program is built once here ([plane_prog]); the fault
    simulator writes the program of each fault group's cone into a
    buffer of its own with {!emit}. *)

open Fst_logic
open Fst_netlist

type t = private {
  circuit : Circuit.t;
  n_slots : int;  (** number of nets *)
  n_level0 : int;  (** slots [0 .. n_level0-1] are inputs/consts/FFs *)
  n_gates : int;
  perm : int array;  (** net id -> slot *)
  net_of : int array;  (** slot -> net id *)
  gate_op : int array;
      (** opcode per gate: And=0 Nand=1 Or=2 Nor=3 Xor=4 Xnor=5 Buf=6
          Not=7; [op land 1] is the output inversion, [op lsr 1] the base
          function. *)
  fanin_off : int array;  (** length [n_gates+1]; CSR offsets into fanin *)
  fanin : int array;  (** flattened fanin slots of all gates *)
  n_ffs : int;
  ff_slot : int array;  (** flip-flop k's output slot *)
  ff_data : int array;  (** flip-flop k's data (next-state) slot *)
  ff_of_slot : int array;  (** slot -> flip-flop index, or -1 *)
  fanout_off : int array;  (** length [n_slots+1]; CSR offsets into fanout *)
  fanout : int array;  (** flattened consumer slots of all slots *)
  init : Bytes.t;
      (** power-on vector: constants set, everything else [V3b.x] *)
  plane_prog : int array;
      (** every gate's plane instruction ({!emit}), in gate order *)
}

val of_circuit : Circuit.t -> t

(** [gate_slot cc k] is gate [k]'s output slot, [n_level0 + k]. *)
val gate_slot : t -> int -> int

(** [slot_gate cc s] is the gate index of slot [s], or [-1] for level-0
    slots. *)
val slot_gate : t -> int -> int

(** {2 Stimuli} *)

(** A test stimulus: per clock cycle, assignments to nets (usually primary
    inputs). Unassigned nets hold their previous value, starting from [X]. *)
type stimulus = (int * V3.t) list array

(** Per cycle, packed assignments [(slot lsl 2) lor code]. *)
type cstim = int array array

val compile_stim : t -> stimulus -> cstim

(** {2 Scalar kernel}

    A machine state is just a [Bytes.t] of length [n_slots + 1]. *)

val make_vec : t -> Bytes.t
val reset_vec : t -> Bytes.t -> unit
val get : Bytes.t -> int -> V3b.code
val set : Bytes.t -> int -> V3b.code -> unit
val apply : Bytes.t -> int array -> unit

(** [eval_range cc ?fanin v ~lo ~hi] runs the opcode-switch kernel over
    gate indices [lo .. hi-1] (levelized by construction). [fanin]
    defaults to [cc.fanin]; pass a modified copy to redirect individual
    fanin reads (branch faults). *)
val eval_range : t -> ?fanin:int array -> Bytes.t -> lo:int -> hi:int -> unit

(** Full combinational settle: [eval_range ~lo:0 ~hi:n_gates]. *)
val eval : t -> ?fanin:int array -> Bytes.t -> unit

(** [clock cc v latch] latches every flip-flop's data value then publishes
    simultaneously ([latch] is caller scratch of length >= [n_ffs]). Does
    {e not} re-evaluate combinational logic. *)
val clock : t -> Bytes.t -> Bytes.t -> unit

(** {2 Good-trace recorder}

    [trace cc stim] runs the fault-free machine over the whole stimulus
    and returns one row per cycle: a copy of the value vector after that
    cycle's combinational settle (before the clock edge). Rows are fresh
    and safe to share read-only across domains. *)
val trace : t -> cstim -> Bytes.t array

(** {2 Static cones}

    [cone_slots cc ~seeds] is every slot reachable from [seeds] through
    the fanout CSR (crossing flip-flop boundaries), sorted ascending —
    i.e. levelized. Slots outside it can never diverge from the good
    machine under a fault whose effect enters at [seeds]. *)
val cone_slots : t -> seeds:int array -> int array

(** {2 Plane programs}

    One instruction per gate: [op; dst; n; fanin_1 .. fanin_n], where
    [op] is the base function times two (AND 0, OR 2, XOR 4) plus the
    output inversion bit (a BUF is written as a one-input AND, a NOT as a
    one-input NAND), [dst] the gate's output slot and the fanins slot
    ids. A gate the caller evaluates itself is written as a two-word
    marker instead ({!emit_override}). *)

(** An upper bound on the words of any program over the gates of the
    circuit, each at most once: [3 * n_gates] plus the fanin pool. *)
val program_words : t -> int

(** [emit cc prog pos k] writes gate [k]'s instruction at [prog.(pos)]
    and returns the position after it. *)
val emit : t -> int array -> int -> int -> int

(** [emit_override prog pos k] writes the two-word marker of gate [k]
    and returns the position after it. *)
val emit_override : int array -> int -> int -> int

(** {2 Bit-plane kernel}

    Word-level three-valued planes for packed simulation: per slot, bit
    [b] of [ones] means lane [b] carries 1, of [zeros] that it carries 0;
    neither means X. Lanes are whatever the caller packs: faulty machines
    (fault-parallel) or stimulus blocks (pattern-parallel). *)
module Planes : sig
  type vec = { full : int; ones : int array; zeros : int array }

  val make : t -> lanes:int -> vec
  val set_lane : vec -> int -> V3b.code -> bit:int -> unit

  (** [eval_gate_via cc ~full ~read k] evaluates gate [k] on planes,
      reading fanin pool index [i] through [read i = (ones, zeros)].
      Used on the rare override-carrying gates of the cone-clipped
      fault-group kernel in [Fst_fsim]. *)
  val eval_gate_via :
    t -> full:int -> read:(int -> int * int) -> int -> int * int

  (** [run prog ~len ~full ~ones ~zeros ~override] executes the first
      [len] words of a plane program in order, reading and writing the
      slot planes [ones]/[zeros] (length >= [n_slots + 1]); [full] is
      the all-lanes mask. The marker of gate [k] calls [override k],
      which must write gate [k]'s output planes itself. Every slot the
      program reads must hold its planes before the call. *)
  val run :
    int array ->
    len:int ->
    full:int ->
    ones:int array ->
    zeros:int array ->
    override:(int -> unit) ->
    unit

  (** Full-netlist plane settle (no faults): runs [plane_prog]. *)
  val eval : t -> vec -> unit

  (** Plane clock; [l1]/[l0] are caller scratch of length >= [n_ffs]. *)
  val clock : t -> vec -> l1:int array -> l0:int array -> unit

  (** Pattern-parallel good trace: lane [b] simulates stimulus block [b].
      Only the [cols] slots are recorded: row [t] of [rows1]/[rows0]
      holds, at index [col.(s)], the planes of slot [s] after cycle [t]'s
      settle ([col.(s) = -1] for a slot that was not recorded). Lanes past
      their own block length keep ticking and must be masked by the
      reader using [lane_len]. *)
  type packed = {
    lanes : int;
    cycles : int;  (** max block length *)
    lane_len : int array;
    col : int array;  (** slot -> row index, or [-1]; length [n_slots + 1] *)
    rows1 : int array array;
    rows0 : int array array;
  }

  val max_lanes : int

  (** [trace_packed cc ~cols stims] records the [cols] slots (distinct
      slot ids) of every cycle. Raises [Invalid_argument] on 0 or more
      than [max_lanes] blocks. *)
  val trace_packed : t -> cols:int array -> stimulus array -> packed
end
