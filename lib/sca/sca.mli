(** Static circuit analysis: constant propagation, a static implication
    engine, and fault-independent untestability proofs.

    Everything here is search-free: one ternary constant-propagation
    fixpoint over the scan-mode model ({!View.t}), one implication
    propagation per net literal (SOCRATES-style static learning, stored as
    a flat CSR graph), and a FIRE-style pass that finds faults whose
    detection would require conflicting values on a single net. Each
    untestability claim carries a machine-checkable proof ({!check}
    re-derives it from scratch), and the soundness contract is that every
    statically proven fault is also {!Fst_atpg.Podem}-untestable on the
    same view — the flow may therefore drop them without running ATPG.

    The analysis is deliberately conservative: it only ever {e proves}
    untestability; failing to prove a fault says nothing. All reasoning is
    on the fault-free (good) machine except propagation blocking, which is
    made fault-aware through {!Fst_fault.Fault.cone}: a side input forced
    to a controlling value only blocks the fault effect when that side net
    lies outside the fault's cone (a reconvergent side could otherwise
    carry the effect itself and re-open the path). *)

open Fst_logic
open Fst_netlist
open Fst_fault

(** {1 Derivations} *)

(** Why a net holds a constant under the scan-mode model. *)
type reason =
  | Tied  (** view-fixed source or tie cell *)
  | Forward of int  (** output of gate node [n] implied by its fanins *)
  | Backward of { node : int; pin : int }
      (** fanin [pin] of node [node] justified from the node's output *)
  | Assumed  (** the assumption literal of an implication query *)
  | Learned of int
      (** depth-1 recursive learning: common consequence of every way to
          justify unjustified gate [n] *)

(** Implication graph in flat CSR form over literals. Literal
    [2*net + 1] is [net = 1], literal [2*net] is [net = 0]. Edges of
    literal [l] are [dst.(off.(l)) .. dst.(off.(l+1) - 1)]; the edge set
    is the propagation closure of the single assumption [l] over the base
    constants (direct implications, transitive consequences, learned
    implications, plus contrapositives — recorded only when the branch
    net is definitely binary in a completed test, the condition under
    which contraposition of a ternary implication is valid). Every edge
    is a theorem about completed tests; a literal whose edge set names
    both values of one net is marked {!impossible}. *)
type graph = private { off : int array; dst : int array }

val lit : net:int -> value:bool -> int
(** [lit ~net ~value] is the literal id used by {!graph} and
    {!impossible}. *)

(** {1 Proofs} *)

(** One element of a propagation-blocking cut: gate [node]'s side input
    [pin] (reading [side]) is forced to the gate's controlling value
    [ctrl], and [side] is outside the fault's cone, so no fault effect
    passes [node]. *)
type blocker = { node : int; pin : int; side : int; ctrl : V3.t }

(** What blocks detection under one branch of a FIRE split. *)
type branch_evidence =
  | Conflict  (** the branch assumption contradicts the base constants *)
  | Excitation of V3.t
      (** the site net is implied to the stuck value, so the fault cannot
          be excited *)
  | Cut of blocker list
      (** every path from the fault site to an observation point crosses
          one of these blocked gates *)

(** Machine-checkable refutation of a single literal [net = value]. Each
    variant replays in {!check} as at most three deduction runs
    (propagation plus depth-1 recursive learning). *)
type refutation =
  | Direct  (** assuming the literal deduces a contradiction *)
  | Via of { via : int; value : V3.t }
      (** the literal forces [via = value], which in turn forces the
          literal's negation — two deductions composing to a
          contradiction that neither exhibits alone *)
  | Cases of int
      (** the named net is binary under every completed input assignment
          and both of its values force the literal's negation *)

type proof =
  | Unexcitable
      (** setting the site net opposite to the stuck value is impossible
          (base constant, or the assumption deduces a conflict) *)
  | Unobservable of blocker list
      (** cut under the base constants alone *)
  | Fire of { m : int; if0 : branch_evidence; if1 : branch_evidence }
      (** detection is blocked both when net [m] = 0 and when [m] = 1;
          [m] is binary under every completed input assignment, so no
          test escapes the split *)
  | Requires of {
      pin : int option;
      net : int;
      value : V3.t;
      refutation : refutation;
    }
      (** detection requires the literal [net = value], which is refuted.
          [pin = None]: the excitation requirement (the site net opposite
          to the stuck value). [pin = Some q]: the fault is a branch
          fault, [net] feeds side pin [q] of its node, and the fault
          effect passes the node only when that side holds the
          non-controlling value [value] — a side at the controlling value
          forces the output in both machines. This is what closes the
          scan-mode test-point transparency faults: the forced pin fault
          makes the test point transparent, and the signal pin can be
          shown never to take the one value that would expose it. *)
  | Dominated of Fault.t
      (** every test for this fault also detects the named fault, which
          is itself proven untestable *)

type untestable = { fault : Fault.t; proof : proof }

(** {1 Results} *)

type stats = {
  nets : int;
  targets : int;  (** faults given to {!analyze} *)
  constants : int;  (** gate nets proven constant (tied sources excluded) *)
  implications : int;  (** edges in {!graph}, learned edges included *)
  learned : int;  (** implications found only by recursive learning *)
  impossible : int;  (** literals proven unreachable *)
  untestable : int;
  dominance_edges : int;
      (** dominator/dominated pairs present in the target set *)
  seconds : float;
      (** wall-clock time of {!analyze} ({!Fst_exec.Clock}, the clock of
          the flow's phase gauges), not process CPU time *)
}

type t = private {
  view : View.t;
  base : V3.t array;  (** constant-propagation fixpoint; [X] = unknown *)
  base_reason : reason option array;
  def_binary : bool array;
      (** net is binary under every completed input assignment *)
  impossible : bool array;  (** indexed by {!lit} *)
  graph : graph;
  untestable : untestable list;  (** subset of the [faults] argument *)
  dominance : (Fault.t * Fault.t) list;
      (** (dominator, dominated) pairs, both members of the target set *)
  stats : stats;
}

val analyze : ?learn:bool -> View.t -> faults:Fault.t array -> t
(** [analyze view ~faults] runs the full static analysis over the given
    fault targets (normally the collapsed hard-fault set). [learn]
    (default [true]) enables depth-1 recursive learning. Deterministic:
    depends only on the view and the fault array. *)

val impossible : t -> int -> V3.t -> bool
(** [impossible t net v] is [true] when the good machine can never hold
    [net = v]; [false] for [X] or non-proven literals. Sound: a [true]
    answer is a theorem about every reachable assignment. *)

val implied : t -> net:int -> value:bool -> (int * bool) list
(** Successors of a literal in {!graph}, decoded back to (net, value). *)

val check : t -> untestable -> bool
(** [check t u] re-derives the proof of [u] from the base constants —
    independent propagation runs, cut re-verification, cone membership —
    and returns [false] on any mismatch. *)

val to_json : t -> Fst_obs.Json.t
(** Versioned JSON report: constants with derivation traces, implication
    and impossible-literal counts, dominance pairs, and one proof object
    per untestable fault ([{"fault"; "site"; "stuck"; "proof": ...}]). *)
