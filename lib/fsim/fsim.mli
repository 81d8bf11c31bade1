(** Sequential stuck-at fault simulation.

    A test is a {!stimulus}: per clock cycle, assignments to primary inputs
    (unassigned inputs hold their previous value, starting from [X]).
    Detection is conservative: a fault is detected at cycle [t] when some
    observed net carries a binary value in the good machine and the
    complementary binary value in the faulty machine. A potential detection
    (faulty value [X]) does not count, as in the paper.

    Three interchangeable back-ends implement the common {!ENGINE}
    interface: {!Serial} (one faulty machine at a time, the reference),
    {!Parallel} (62 faulty machines per pass, bit-parallel) and {!Event}
    (one fault at a time as a sparse divergence overlay on a shared
    fault-free trace, event-driven). {!Engine} picks a back-end per fault
    by static cone size ({!Engine.plan}) and shards the fault list across
    a domain pool ({!Fst_exec.Pool}) when [jobs > 1]. *)

open Fst_logic
open Fst_netlist
open Fst_fault

type stimulus = Fst_sim.Sim.stimulus

(** The whole-workload interface every fault-simulation back-end provides.
    Results are per input fault, in input order, independent of back-end
    grouping. *)
module type ENGINE = sig
  (** [detect_all c ~faults ~observe stim] maps each fault to its first
      detection cycle. *)
  val detect_all :
    Circuit.t ->
    faults:Fault.t array ->
    observe:int array ->
    stimulus ->
    int option array

  (** [detect_dropping c ~faults ~observe ~stimuli] simulates a list of
      stimulus blocks in order with cross-block fault dropping: faults
      detected in an earlier block are not simulated in later ones.
      Returns, per fault, [Some (block, cycle)] or [None]. *)
  val detect_dropping :
    Circuit.t ->
    faults:Fault.t array ->
    observe:int array ->
    stimuli:stimulus list ->
    (int * int) option array
end

(** Reference implementation: one faulty machine at a time. *)
module Serial : sig
  (** [detect c ~fault ~observe stim] is [Some t] for the first cycle at
      which [fault] is detected on one of the [observe] nets, else [None]. *)
  val detect :
    Circuit.t -> fault:Fault.t -> observe:int array -> stimulus -> int option

  (** [trace c ~fault ~observe stim] runs the whole stimulus on the
      (faulty, or fault-free when [fault] is [None]) machine and records
      the [observe] net values at every cycle. *)
  val trace :
    Circuit.t ->
    fault:Fault.t option ->
    observe:int array ->
    stimulus ->
    V3.t array array

  include ENGINE
end

(** Cone-clipped bit-parallel simulation: up to 62 faulty machines per
    pass, three-valued (two bit-planes per net). A group only maintains
    planes for the slots inside its members' union fanout cone (faults
    are grouped in cone-seed order to maximize overlap); everything
    outside the cone is read off the shared fault-free trace, broadcast
    to all lanes. *)
module Parallel : sig
  (** Machines per bit-parallel pass. *)
  val max_group : int

  include ENGINE

  (** Pattern-parallel variant of [detect_dropping]: the {e lanes} are
      stimulus blocks instead of faults — the fault-free machine is
      packed once over up to {!max_group} blocks and each fault replays
      its cone against all blocks simultaneously, returning the
      lowest-index detecting block and its first cycle, exactly like the
      serial block scan. Wins when there are few faults and many blocks
      (the tail of a drop-simulation run); [detect_dropping] switches to
      it automatically in that regime. *)
  val detect_dropping_packed :
    Circuit.t ->
    faults:Fault.t array ->
    observe:int array ->
    stimuli:stimulus list ->
    (int * int) option array
end

(** Event-driven incremental simulation: the fault-free machine runs once
    per stimulus block and every fault is replayed as a sparse divergence
    overlay on that shared trace. Events are seeded only at the fault site
    (and at flip-flops still holding divergent state) and propagate through
    gates in ascending combinational level, so work per cycle is bounded by
    the fault's active region inside its static fanout cone
    ({!Fst_fault.Fault.cone}) — a quiescent or reconverged cycle is O(1).
    Detection and dropping semantics are bit-identical to {!Serial}. *)
module Event : ENGINE

(** A concrete back-end. *)
type backend = [ `Serial | `Parallel | `Event ]

(** Back-end selection plus multicore dispatch. Faults are partitioned by
    static cone size ([`Event] for small cones, [`Parallel] for large),
    and each partition falls back to [`Serial] if its modeled cost would
    exceed the serial cost of the same faults ({!plan}). Every back-end
    returns identical results, so the choice only moves wall-clock time.
    With [jobs = 1] (the default) the chosen back-ends run in the caller;
    with [jobs > 1] the fault list is sharded into back-end-sized chunks
    (whole 62-wide groups for [`Parallel]) that run on a domain pool, and
    the per-shard results are merged back in input order — the result is
    identical for every [jobs] value because faulty machines never
    interact. *)
module Engine : sig
  (** With a live [obs] sink each call counts
      [fsim.<entry>.calls] / [.faults], fills a [.call_s] duration
      histogram, emits a trace span, and threads the sink into the pool
      (per-domain busy accounting); the event back-end additionally fills
      [fsim.event.events] (gate evaluations per fault-block) and
      [fsim.event.reconv_rate] (reconverged / active cycles) histograms.
      With the default {!Fst_obs.Sink.null} the instrumentation is a
      single branch per call — the inner simulation loops are never
      touched. *)

  (** One scheduling decision: run the faults at [indices] (into
      the caller's fault array) on [backend], at a modeled cost of
      [units] scalar gate evaluations. *)
  type decision = {
    backend : backend;
    indices : int array;
    units : int;
  }

  (** [plan c ~faults ~cycles] is the cost model made
      inspectable: the decision list partitions the fault indices, and
      every decision's modeled [units] is guaranteed not to exceed the
      modeled serial cost of the same faults — a partition whose
      preferred back-end models worse than serial is demoted to
      [`Serial]. [cycles] is the total stimulus length the workload will
      simulate. The [units] also feed {!Fst_exec.Pool}'s minimum-work
      threshold, so tiny workloads run in-caller instead of spawning
      domains. *)
  val plan :
    Circuit.t -> faults:Fault.t array -> cycles:int -> decision list

  val detect_all :
    ?obs:Fst_obs.Sink.t ->
    ?jobs:int ->
    Circuit.t ->
    faults:Fault.t array ->
    observe:int array ->
    stimulus ->
    int option array

  val detect_dropping :
    ?obs:Fst_obs.Sink.t ->
    ?jobs:int ->
    Circuit.t ->
    faults:Fault.t array ->
    observe:int array ->
    stimuli:stimulus list ->
    (int * int) option array
end
