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

    The bit-plane kernels ({!Planes}) read the gates as one flat
    {e plane program} ([plane_prog]). *)

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
      (** per gate, in gate order: [op; n; 2 f_1 .. 2 f_n] with [op] the
          gate opcode and [f_i] the fanin slots, doubled to index
          interleaved planes (see {!Planes}) *)
  plane_at : int array;
      (** length [n_gates+1]: gate [k]'s instruction is at
          [plane_at.(k)] *)
  level_gate : int array;
      (** the gates of level [l >= 1] are [level_gate.(l) .. level_gate.(l
          + 1) - 1]: gate order is level order, and a gate's fanins are all
          of lower levels *)
}

val of_circuit : Circuit.t -> t

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

    The cone of [seeds] is every slot reachable from them through the
    fanout CSR (crossing flip-flop boundaries). Slots outside it can
    never diverge from the good machine under a fault whose effect
    enters at [seeds]. *)

(** Scratch of the cone walk (a visit stamp per slot and a queue),
    reused walk after walk without clearing. A walker belongs to one
    domain at a time. *)
type walker

val walker : t -> walker

(** [cone_slots cc ~seeds] is the cone of [seeds], sorted ascending —
    i.e. levelized — walked on fresh scratch. *)
val cone_slots : t -> seeds:int array -> int array

(** [reaches w cc ~seeds targets] is whether the cone of [seeds] holds a
    slot whose byte in [targets] is nonzero. The walk stops at the first
    such slot. *)
val reaches : walker -> t -> seeds:int array -> Bytes.t -> bool

(** {2 Bit-plane kernels}

    Word-level three-valued planes, one interleaved pair per slot: bit
    [b] of word [2s] (the ones plane of slot [s]) means lane [b] carries
    1, of word [2s + 1] (its zeros plane) that lane [b] carries 0;
    neither means X. [full] is the mask of the lanes in use. The good
    trace below packs stimulus blocks into the lanes, and the fault
    simulator runs one faulty machine per (fault, block) lane against
    it. *)
module Planes : sig
  (** [eval_range cc ~full planes ~lo ~hi] evaluates the gates at slots
      [lo .. hi-1] in order, each from the planes of its fanins. *)
  val eval_range : t -> full:int -> int array -> lo:int -> hi:int -> unit

  (** [eval_list cc ~full planes gates ~n] evaluates the gates at slots
      [gates.(0) .. gates.(n-1)] in that order. *)
  val eval_list : t -> full:int -> int array -> int array -> n:int -> unit

  (** [broadcast row ~full planes ~upto] sets the planes of slots [0 ..
      upto-1] to the scalar values of [row] in every lane of [full]. *)
  val broadcast : Bytes.t -> full:int -> int array -> upto:int -> unit

  (** The good machine of a set of blocks, paused between two cycles. *)
  type machine

  (** A good trace recorded slice by slice, lane [j + i * blocks] running
      block [j]. After {!next_slice}, row [j] of [rows] holds the planes
      of every slot after cycle [first + j]'s settle, for [j < len].
      Lanes past their own block length keep ticking and must be masked
      by the reader using [lane_len]. *)
  type packed = private {
    blocks : int;
    lanes : int;  (** [blocks] times the number of copies *)
    cycles : int;  (** max block length *)
    lane_len : int array;  (** per lane, the length of its block *)
    rows : int array array;
    mutable first : int;
    mutable len : int;
    good : machine;
  }

  (** [slice_cycles ~n_slots] is the most cycles a slice of a circuit of
      [n_slots] slots holds: 32, or fewer where 32 rows of [16 * (n_slots
      + 1)] bytes would pass 256 MB, and at least 1. *)
  val slice_cycles : n_slots:int -> int

  (** [trace_packed cc stims ~copies] is the good machine of [stims] at
      cycle 0, each block in [copies] lanes, with an empty slice ([first
      = 0], [len = 0]). Its buffers hold [min (slice_cycles ~n_slots)
      cycles] rows of [2 * (n_slots + 1)] words. Raises
      [Invalid_argument] on 0 blocks, on fewer than one copy, or on more
      lanes than an int has bits to spare. *)
  val trace_packed : t -> cstim array -> copies:int -> packed

  (** [next_slice cc p] resumes the good machine at cycle
      [p.first + p.len] and records the following cycles over the
      previous slice, as many as its buffers hold or as remain. *)
  val next_slice : t -> packed -> unit
end
