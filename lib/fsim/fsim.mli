(** Sequential stuck-at fault simulation.

    A test is a {!stimulus}: per clock cycle, assignments to primary inputs
    (unassigned inputs hold their previous value, starting from [X]).
    Detection is conservative: a fault is detected at cycle [t] when some
    observed net carries a binary value in the good machine and the
    complementary binary value in the faulty machine. A potential detection
    (faulty value [X]) does not count, as in the paper.

    {!Engine} is the one entry point: 62 faulty machines per pass,
    bit-parallel and cone-clipped, with the fault list sharded across a
    domain pool ({!Fst_exec.Pool}) when [jobs > 1]. Results are per input
    fault, in input order, independent of grouping and of [jobs].
    {!Serial} (one faulty machine at a time) is the reference the
    property tests compare against, and the trace recorder diagnosis
    uses; {!Parallel} only exposes two hooks of the engine to the tests.

    The engine's scratch (plane arrays, override table, plane-program
    buffer, cone-walk stamps) lives in a context per concurrent task.
    Idle contexts are kept, at most one per core, with the cached
    compiled form of the last circuit simulated, and dropped when another
    circuit is simulated. A task takes one (or builds one when none is
    idle) and puts it back when its last fault group has been dropped; a
    task that raises does not put its context back. *)

open Fst_logic
open Fst_netlist
open Fst_fault

type stimulus = Fst_sim.Compiled.stimulus

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

(** Hooks into {!Engine}'s cone-clipped bit-parallel simulation, for the
    tests: up to 62 faulty machines per pass, three-valued (two
    bit-planes per net). A group only maintains planes for the slots
    inside its members' union fanout cone (faults are grouped in
    cone-seed order to maximize overlap); everything outside the cone is
    read off the shared fault-free trace, broadcast to all lanes. *)
module Parallel : sig
  (** Pattern-parallel variant of dropping simulation: the {e lanes} are
      stimulus blocks instead of faults — the fault-free machine is
      packed once per chunk of up to 62 blocks and each fault replays
      its cone against all blocks of a chunk simultaneously, returning
      the lowest-index detecting block and its first cycle, exactly like
      the serial block scan. The packed trace records only the columns
      the faults read (each cone's read boundary, a level-0 stem slot,
      the observed slots); each cone seed's read set is memoized with the
      cached compiled circuit. Wins when the faults are few per block — a
      fault list of any length over a window of many blocks, such as
      step 2 of the flow; {!Engine.detect_dropping} switches to it
      automatically when the estimated plane evaluations say so. *)
  val detect_dropping_packed :
    Circuit.t ->
    faults:Fault.t array ->
    observe:int array ->
    stimuli:stimulus list ->
    (int * int) option array

  (** Whether {!Engine.detect_dropping} takes the pattern-packed branch on
      these faults and stimuli: it does when replaying each fault's cone
      over every chunk of 62 blocks is estimated to cost fewer plane
      evaluations than sweeping each fault group's union cone over every
      block. Cone sizes are memoized per seed with the cached compiled
      circuit. *)
  val packs : Circuit.t -> faults:Fault.t array -> stimuli:stimulus list -> bool
end

(** The fault-simulation entry point: cone-clipped bit-parallel
    simulation plus multicore dispatch. With [jobs = 1] (the default) it
    runs in the caller; with
    [jobs > 1] the fault list is sharded into whole 62-wide groups that
    run on a domain pool, and the per-shard results are merged back in
    input order — the result is identical for every [jobs] value because
    faulty machines never interact. Tiny workloads run in the caller
    regardless of [jobs] (the pool's minimum-work threshold). *)
module Engine : sig
  (** With a live [obs] sink each call counts
      [fsim.<entry>.calls] / [.faults], fills a [.call_s] duration
      histogram, emits an [fsim.<entry>] trace span with two child spans
      — [fsim.trace] (recording the good machine: the scalar trace, or
      the packed traces of a pattern-parallel dropping call) and
      [fsim.simulate] (the faults against it) — and threads the sink into
      the pool (per-domain busy accounting). With the default
      {!Fst_obs.Sink.null} the instrumentation is a single branch per
      call — the inner simulation loops are never touched. *)

  (** Machines per bit-parallel pass (62). A dropping call over at most
      this many blocks records each good trace in one packed pass, so
      callers that poll between calls step by windows of this width. *)
  val max_group : int

  (** [detect_all c ~faults ~observe stim] maps each fault to its first
      detection cycle, as {!Serial.detect_all}. *)
  val detect_all :
    ?obs:Fst_obs.Sink.t ->
    ?jobs:int ->
    Circuit.t ->
    faults:Fault.t array ->
    observe:int array ->
    stimulus ->
    int option array

  (** [detect_dropping c ~faults ~observe ~stimuli] is, per fault, the
      first detecting block and its first detection cycle, as
      {!Serial.detect_dropping}. *)
  val detect_dropping :
    ?obs:Fst_obs.Sink.t ->
    ?jobs:int ->
    Circuit.t ->
    faults:Fault.t array ->
    observe:int array ->
    stimuli:stimulus list ->
    (int * int) option array
end
