(** Sequential stuck-at fault simulation.

    A test is a {!stimulus}: per clock cycle, assignments to primary inputs
    (unassigned inputs hold their previous value, starting from [X]).
    Detection is conservative: a fault is detected at cycle [t] when some
    observed net carries a binary value in the good machine and the
    complementary binary value in the faulty machine. A potential detection
    (faulty value [X]) does not count, as in the paper.

    {!Engine} is the one entry point: 62 faulty machines per pass, each
    lane a (fault, block) pair, bit-parallel and driven by their
    divergence from the good machine, with the passes sharded across a
    domain pool ({!Fst_exec.Pool}) when [jobs > 1]. Results are per
    input fault, in input order, independent of the layout and of
    [jobs]. Besides detection it runs classification's scan-mode steady
    state ({!Engine.steady_state}) on the same lanes and fault sites.
    {!Serial} (one faulty machine at a time) is the reference the
    property tests compare against, and the trace recorder diagnosis
    uses.

    The engine's scratch (plane arrays, gate queue, undo log, fault-site
    masks, cone-walk stamps) lives in a context per concurrent task.
    Idle contexts are kept, at most one per core, with the cached
    compiled form of the last circuit simulated, and dropped when another
    circuit is simulated. A task takes one (or builds one when none is
    idle) and puts it back when its last pass has been dropped; a task
    that raises does not put its context back. *)

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

(** The fault-simulation entry point: divergence-driven bit-parallel
    simulation plus multicore dispatch. Three entries: {!detect_all} and
    {!detect_dropping} simulate stimuli against the good machine's
    trace; {!steady_state} iterates each faulty machine under constant
    inputs to its fixpoint. A detection call takes its blocks in
    chunks of [k = min 62 (blocks left)] and packs the good machine of a
    chunk once, each block in [62 / k] lanes. A pass runs [62 / k]
    faults over the chunk, fault [i] on lanes [i * k .. i * k + k - 1]:
    one fault over 62 blocks, 31 faults over 2, 62 faults over one.
    A cycle evaluates only the gates with a fanin that differs from the
    good machine in a live lane (or that carry a fault site); every other
    net reads the good machine's planes, recorded in slices of at most
    32 cycles. When many flip-flops differ the cycle evaluates every
    gate instead. A fault that detects on a block stops running on the
    later blocks of its chunk. With [jobs = 1] (the default) it runs in
    the caller; with [jobs > 1] the passes are sharded across a domain
    pool, and the per-shard results are merged back in input order —
    the result is identical for every [jobs] value because faulty
    machines never interact. Tiny workloads run in the caller regardless
    of [jobs] (the pool's minimum-work threshold). *)
module Engine : sig
  (** With a live [obs] sink each call counts
      [fsim.<entry>.calls] / [.faults], fills a [.call_s] duration
      histogram, emits an [fsim.<entry>] trace span with two child spans
      — [fsim.trace] (compiling the circuit and the blocks, or settling
      the good scan-mode values) and [fsim.simulate] (the faults against
      the good machine, whose packed trace is recorded in there, one
      [fsim.slice] span per slice) — and
      threads the sink into the pool (per-domain busy accounting).
      The metric handles are resolved once per registry. With the default
      {!Fst_obs.Sink.null} the instrumentation is a single branch per
      call — the inner simulation loops are never touched. *)

  (** Lanes per bit-parallel pass (62), and so the most blocks a call
      packs into one good trace: a dropping call over at most this many
      blocks records each block's good machine once and runs each fault
      over all of them in one pass, so callers that poll between calls
      step by windows of this width. *)
  val max_group : int

  (** [detect_all c ~faults ~observe stim] maps each fault to its first
      detection cycle, as {!Serial.detect_all}: a one-block dropping
      run, 62 faults a pass, counted under its own [fsim.detect_all]
      entry. *)
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

  (** [steady_state c ~constraints ~faults ~watch f] is, per fault,
      [f fault changes]: [changes] are the [watch] nets whose scan-mode
      steady state differs from the good machine's ([constraints]
      applied, free inputs and flip-flops X), with their faulty values,
      in no set order. Each sweep re-evaluates the gates whose fanins
      changed in level order, then the flip-flops whose data changed
      latch it together; a flip-flop changing a third time becomes X, and
      it stops when none changes. 62 faults a pass, one lane each; [f]
      runs as each pass ends, on a pool domain when [jobs > 1]. *)
  val steady_state :
    ?obs:Fst_obs.Sink.t ->
    ?jobs:int ->
    Circuit.t ->
    constraints:(int * V3.t) list ->
    faults:Fault.t array ->
    watch:int array ->
    (Fault.t -> (int * V3.t) list -> 'a) ->
    'a array
end
