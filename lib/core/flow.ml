open Fst_netlist
open Fst_fault
open Fst_fsim
open Fst_atpg
open Fst_tpi
module Pool = Fst_exec.Pool
module Clock = Fst_exec.Clock
module Budget = Fst_exec.Budget
module Retry = Fst_exec.Retry
module Chaos = Fst_exec.Chaos
module Sink = Fst_obs.Sink
module Metrics = Fst_obs.Metrics
module Trace = Fst_obs.Trace
module Json = Fst_obs.Json

exception Preflight_failed of Fst_lint.Diagnostic.t list

type step2 = {
  detected : int;
  untestable : int;
  undetected : int;
  vectors : int;
  atpg_seconds : float;
  fsim_seconds : float;
  curve : (int * int) array;
}

type step3 = {
  detected : int;
  untestable : int;
  undetected : int;
  group_circuits : int;
  final_circuits : int;
  seconds : float;
}

type phase_aborts = {
  phase : string;
  budget_exhausted : bool;
  atpg_aborts : int;
  cancelled_groups : int;
  failed : int;
}

let budget_exhausted phases = List.exists (fun p -> p.budget_exhausted) phases

type atpg_stats = {
  podem_runs : int;
  podem_backtracks : int;
  podem_decisions : int;
  podem_implications : int;
  podem_aborted_limit : int;
  podem_aborted_deadline : int;
  seq_runs : int;
  seq_backtracks : int;
}

type verdict =
  | Detected_step2
  | Detected_step3
  | Untestable_static
  | Untestable_step2
  | Untestable_step3
  | Undetected
  | Aborted
  | Failed

type result = {
  scanned : Circuit.t;
  config : Scan.config;
  faults : Fault.t array;
  classify : Classify.t;
  classify_seconds : float;
  step2 : step2;
  step3 : step3;
  verdicts : verdict array;
  aborts : phase_aborts list;
  atpg : atpg_stats;
}

let total_faults r = Array.length r.faults
let affecting r = r.classify.Classify.affecting

(* A pending fault awaits a later phase: [Undetected] once it has had its
   full attempt, [Aborted] while the budget has denied it one. Phases
   target, detect, deny and quarantine pending faults only, so every
   other verdict is final. *)
let pending = function Undetected | Aborted -> true | _ -> false

(* The hard-fault indices whose verdict satisfies [p], ascending. *)
let indices verdicts p =
  let acc = ref [] in
  for i = Array.length verdicts - 1 downto 0 do
    if p verdicts.(i) then acc := i :: !acc
  done;
  !acc

let count verdicts v =
  Array.fold_left (fun n w -> if w = v then n + 1 else n) 0 verdicts

let faults_where r p =
  List.map
    (fun i -> r.faults.(r.classify.Classify.hard.(i)))
    (indices r.verdicts p)

let faults_with r v = faults_where r (fun w -> w = v)

(* Everything the chain-testing phase credits as detected: the category-1
   faults (alternating sequence) plus the hard faults steps 2–3 detected. *)
let chain_detected_faults r =
  List.map (fun i -> r.faults.(i)) (Array.to_list r.classify.Classify.easy)
  @ faults_where r (function
      | Detected_step2 | Detected_step3 -> true
      | _ -> false)

(* Splits a combinational-model assignment into flip-flop state and
   primary-input parts. *)
let split_assignment c assignment =
  List.partition (fun (net, _) -> Circuit.is_dff c net) assignment

(* --- abort accounting --------------------------------------------------- *)

(* Mutable per-phase accounting, threaded through the phases and stored in
   every checkpoint so a resumed run keeps what the interrupted one already
   spent or skipped. *)
type acct = {
  mutable cl_late : bool;
  mutable s2a_late : bool;
  mutable s2a_aborts : int;
  mutable s2a_failed : int;
  mutable s2f_late : bool;
  mutable s2f_failed : int;
  mutable s3_late : bool;
  mutable s3_aborts : int;
  mutable s3_cancelled : int;
  mutable s3_failed : int;
  mutable s3_failed_groups : int;
  mutable fin_late : bool;
  mutable fin_aborts : int;
  mutable fin_cancelled : int;
  mutable fin_failed : int;
  (* Aggregate ATPG engine statistics (satellite: they used to be computed
     and thrown away). PODEM/Seq stats from pool domains are committed
     here on the main domain in deterministic wave order, and the record
     rides inside every checkpoint so a resumed run keeps the totals. *)
  mutable p_runs : int;
  mutable p_backtracks : int;
  mutable p_decisions : int;
  mutable p_implications : int;
  mutable p_ab_limit : int;
  mutable p_ab_deadline : int;
  mutable s_runs : int;
  mutable s_backtracks : int;
}

let fresh_acct () =
  {
    cl_late = false;
    s2a_late = false;
    s2a_aborts = 0;
    s2a_failed = 0;
    s2f_late = false;
    s2f_failed = 0;
    s3_late = false;
    s3_aborts = 0;
    s3_cancelled = 0;
    s3_failed = 0;
    s3_failed_groups = 0;
    fin_late = false;
    fin_aborts = 0;
    fin_cancelled = 0;
    fin_failed = 0;
    p_runs = 0;
    p_backtracks = 0;
    p_decisions = 0;
    p_implications = 0;
    p_ab_limit = 0;
    p_ab_deadline = 0;
    s_runs = 0;
    s_backtracks = 0;
  }

(* PODEM stop reasons go straight to the sink as [atpg.stop.<reason>]
   counters, step 3's model count as the [atpg.seq.models] counter, and
   its model-build and search seconds as the [atpg.seq.build_s] and
   [atpg.seq.search_s] fcounters: they explain the search and are kept
   out of [acct], so the report and the checkpoint layout do not carry
   them. *)
let count_stop (sink : Sink.t) stop n =
  if sink.Sink.enabled && n > 0 then
    Metrics.Counter.add
      (Metrics.counter sink.Sink.metrics ("atpg.stop." ^ Podem.stop_name stop))
      n

let add_podem_stats ~sink acct (s : Podem.stats) =
  count_stop sink s.Podem.stop 1;
  acct.p_runs <- acct.p_runs + 1;
  acct.p_backtracks <- acct.p_backtracks + s.Podem.backtracks;
  acct.p_decisions <- acct.p_decisions + s.Podem.decisions;
  acct.p_implications <- acct.p_implications + s.Podem.implications

let add_seq_stats ~sink acct (s : Seq.stats) =
  List.iter
    (fun stop -> count_stop sink stop s.Seq.stops.(Podem.stop_index stop))
    Podem.all_stops;
  if sink.Sink.enabled then begin
    let add name v =
      Metrics.Fcounter.add (Metrics.fcounter sink.Sink.metrics name) v
    in
    add "atpg.seq.build_s" s.Seq.build_s;
    add "atpg.seq.search_s" s.Seq.search_s;
    Metrics.Counter.add
      (Metrics.counter sink.Sink.metrics "atpg.seq.models")
      s.Seq.models_built
  end;
  acct.s_runs <- acct.s_runs + s.Seq.runs;
  acct.s_backtracks <- acct.s_backtracks + s.Seq.backtracks

let atpg_stats_of acct =
  {
    podem_runs = acct.p_runs;
    podem_backtracks = acct.p_backtracks;
    podem_decisions = acct.p_decisions;
    podem_implications = acct.p_implications;
    podem_aborted_limit = acct.p_ab_limit;
    podem_aborted_deadline = acct.p_ab_deadline;
    seq_runs = acct.s_runs;
    seq_backtracks = acct.s_backtracks;
  }

let aborts_of acct =
  [
    { phase = "classify"; budget_exhausted = acct.cl_late;
      atpg_aborts = 0; cancelled_groups = 0; failed = 0 };
    { phase = "step2-atpg"; budget_exhausted = acct.s2a_late;
      atpg_aborts = acct.s2a_aborts; cancelled_groups = 0;
      failed = acct.s2a_failed };
    { phase = "step2-fsim"; budget_exhausted = acct.s2f_late;
      atpg_aborts = 0; cancelled_groups = 0;
      failed = acct.s2f_failed };
    { phase = "step3"; budget_exhausted = acct.s3_late;
      atpg_aborts = acct.s3_aborts;
      cancelled_groups = acct.s3_cancelled;
      failed = acct.s3_failed };
    { phase = "finals"; budget_exhausted = acct.fin_late;
      atpg_aborts = acct.fin_aborts;
      cancelled_groups = acct.fin_cancelled;
      failed = acct.fin_failed };
  ]

(* --- checkpoint state --------------------------------------------------- *)

(* Bump whenever the marshalled layout below (or anything it embeds)
   changes; [Checkpoint.load] rejects other versions.
   v3: failed_flag + chaos counters + acct failed fields.
   v4: phase-0 static-analysis summary ([c_sca]).
   v5: one verdict array replaces the per-fault flags and index lists. *)
let ckpt_version = 5

type plan = {
  blocks : Fsim.stimulus list;
  plan_atpg_seconds : float;
}

type s3_progress = {
  cursor : int;  (* groups already committed *)
  p_group_circuits : int;
  seconds_before : float;  (* step-3 wall clock spent before this resume *)
}

type ckpt = {
  mutable c_classify : (Classify.t * float) option;
  (* The phase-0 analysis statistics, for the end-of-run metrics; its
     proofs live in [verdicts]. *)
  mutable c_sca : Fst_sca.Sca.stats option;
  mutable c_plan : plan option;
  mutable c_s2 : step2 option;
  mutable c_s3 : s3_progress option;
  mutable c_fin : step3 option;
  mutable verdicts : verdict array;  (* indexed by position in the hard set *)
  (* Chaos hit counters at save time: restoring them on resume makes a
     killed-and-resumed run replay the rest of an injection plan from
     the same sequence numbers as the uninterrupted run ([Chaos]).
     Empty when the harness is disarmed. *)
  mutable c_chaos : int array;
  acct : acct;
}

let fresh_ckpt () =
  {
    c_classify = None;
    c_sca = None;
    c_plan = None;
    c_s2 = None;
    c_s3 = None;
    c_fin = None;
    verdicts = [||];
    c_chaos = [||];
    acct = fresh_acct ();
  }

(* A checkpoint is only valid against the exact circuit, scan configuration
   and parameters that produced it. The sink is excluded: it holds mutexes
   and closures (unmarshalable), and attaching observability must not
   invalidate a checkpoint taken without it. [preflight] is excluded for
   the same reason: the lint pass is a pure observer, so toggling it must
   not invalidate a checkpoint either. *)
let fingerprint scanned config (cfg : Config.t) =
  (* The semantic knobs come pre-digested from [Config.fingerprint]
     (shared with the serve cache's content address); the checkpoint
     additionally ties in [jobs] — step-3 wave planning depends on it —
     and the exact circuit and scan configuration. *)
  let key = (cfg.Config.jobs, Config.fingerprint cfg) in
  Digest.to_hex (Digest.string (Marshal.to_string (scanned, config, key) []))

(* --- instrumentation helpers ------------------------------------------- *)

(* Times an individual ATPG call and records a trace span when it clears
   the sink's threshold; a single branch when observability is off. Safe
   on pool domains (the trace buffer is mutex-protected and the span
   lands on the recording domain's tid). *)
let timed_atpg (sink : Sink.t) name f =
  if not sink.Sink.enabled then f ()
  else
    match sink.Sink.trace with
    | None -> f ()
    | Some tr ->
      let t0 = Clock.now () in
      let r = f () in
      let dt = Clock.now () -. t0 in
      if dt >= sink.Sink.atpg_span_s then
        Trace.complete tr ~name ~cat:"atpg" ~start_s:t0 ~dur_s:dt;
      r

(* Wraps one phase body: start/end events, a phase span, a wall-clock
   gauge, and Gc gauges sampled at the phase boundary. *)
let phase_obs (sink : Sink.t) name f =
  if not sink.Sink.enabled then f ()
  else begin
    Sink.event sink ~kind:"phase_start" [ ("phase", Json.String name) ];
    let t0 = Clock.now () in
    let r = Sink.span sink ~name ~cat:"phase" f in
    let dt = Clock.now () -. t0 in
    let m = sink.Sink.metrics in
    Metrics.Gauge.set (Metrics.gauge m ("flow." ^ name ^ ".wall_s")) dt;
    let g = Gc.quick_stat () in
    Metrics.Gauge.set
      (Metrics.gauge m "flow.gc.heap_words")
      (float_of_int g.Gc.heap_words);
    Metrics.Gauge.set
      (Metrics.gauge m "flow.gc.minor_collections")
      (float_of_int g.Gc.minor_collections);
    Metrics.Gauge.set
      (Metrics.gauge m "flow.gc.major_collections")
      (float_of_int g.Gc.major_collections);
    Sink.event sink ~kind:"phase_end"
      [ ("phase", Json.String name); ("wall_s", Json.Float dt) ];
    r
  end

(* --- Step 2: combinational ATPG + sequential fault simulation ---------- *)

(* Every fault that is not statically proven enters holding [Aborted]; its
   attempt rewrites that, and the faults the deadline leaves unattempted
   keep it. *)
let plan_step2 ~(cfg : Config.t) ~budget ~acct ~verdicts view scoap scanned
    config ~hard_faults =
  let sink = cfg.Config.sink in
  let keep_going = cfg.Config.on_error = `Keep_going in
  let dl = Budget.deadline budget Budget.Step2_atpg in
  let t0 = Clock.now () in
  let n = Array.length hard_faults in
  let blocks = ref [] in
  let n_tests = ref 0 in
  let i = ref 0 in
  while !i < n && not (Clock.expired dl) do
    if verdicts.(!i) = Untestable_static then
      (* Statically proven untestable (phase 0): no attempt is owed, so the
         fault is neither attempted here nor abortable below. *)
      incr i
    else begin
      (* Per-fault isolation under [`Keep_going]: a raising ATPG attempt
         quarantines this fault (failed bucket, excluded from step 3) and
         the loop moves on; under [`Fail_fast] the exception propagates as
         it always did. *)
      (try
         match
           timed_atpg sink
             (Printf.sprintf "podem[%d]" !i)
             (fun () ->
               Podem.run ~backtrack_limit:cfg.Config.comb_backtrack
                 ~should_abort:(fun () -> Clock.expired dl)
                 ~scoap view ~faults:[ hard_faults.(!i) ])
         with
         | Podem.Test assignment, stats ->
           add_podem_stats ~sink acct stats;
           verdicts.(!i) <- Undetected;
           incr n_tests;
           let ff_values, pi_values = split_assignment scanned assignment in
           blocks :=
             Sequences.of_comb_test scanned config ~ff_values ~pi_values
             :: !blocks
         | Podem.Untestable, stats ->
           add_podem_stats ~sink acct stats;
           verdicts.(!i) <- Untestable_step2
         | Podem.Aborted, stats ->
           add_podem_stats ~sink acct stats;
           acct.s2a_aborts <- acct.s2a_aborts + 1;
           (* A deadline-tripped abort (as opposed to a backtrack-limit one)
              means the fault was denied its full attempt: it stays
              [Aborted]. *)
           if Clock.expired dl then
             acct.p_ab_deadline <- acct.p_ab_deadline + 1
           else begin
             acct.p_ab_limit <- acct.p_ab_limit + 1;
             verdicts.(!i) <- Undetected
           end
       with e when keep_going ->
         verdicts.(!i) <- Failed;
         acct.s2a_failed <- acct.s2a_failed + 1;
         Sink.event sink ~kind:"fault_failed"
           [
             ("phase", Json.String "step2-atpg");
             ("index", Json.Int !i);
             ("error", Json.String (Printexc.to_string e));
           ]);
      if sink.Sink.enabled then
        Sink.tick sink ~phase:"step2-atpg" ~done_:(!i + 1) ~total:n
          ~detected:!n_tests ~failed:acct.s2a_failed
          ~budget_left:(Clock.remaining dl) ();
      incr i
    end
  done;
  if !i < n then acct.s2a_late <- true;
  (* Deterministic random scan-mode tests appended after the ATPG set (the
     paper's random-vector option): they mop up aborted-ATPG faults during
     the same fault-simulation pass. The free inputs of the scan-mode view
     are exactly the loadable state plus the usable pins. *)
  let random_block rng =
    let ff_values, pi_values =
      split_assignment scanned (Rtpg.uniform rng view)
    in
    Sequences.of_comb_test scanned config ~ff_values ~pi_values
  in
  let rng = Fst_gen.Rng.create cfg.Config.random_seed in
  let blocks =
    List.rev !blocks
    @ List.init cfg.Config.random_blocks (fun _ -> random_block rng)
  in
  let blocks =
    match cfg.Config.truncate_blocks with
    | None -> blocks
    | Some frac ->
      let keep =
        max 1 (int_of_float (frac *. float_of_int (List.length blocks)))
      in
      List.filteri (fun i _ -> i < keep) blocks
  in
  { blocks; plan_atpg_seconds = Clock.now () -. t0 }

type windows = {
  outcome : (int * int) option array;
  curve : (int * int) array;
  late : bool;
  failed : int array;
}

(* Step-2 fault simulation steps by windows of up to [max_group] blocks:
   one dropping engine call per window on the faults still pending, so
   the good machine of a window is recorded once (pattern-packed) instead
   of once per block. Cross-block dropping makes
   every fault's first detecting (block, cycle) the same as a per-block
   scan. The budget is polled between windows, so a tripped deadline
   keeps every detection made so far. *)
let fsim_windows ~sink ~jobs ~keep_going ~budget_left ~failed_before c
    ~faults blocks =
  let nf = Array.length faults in
  let nb = Array.length blocks in
  let outcome = Array.make nf None in
  let failed = ref [||] in
  let n_hit = ref 0 in
  (* Undetected faults are kept as a prefix of [pending], compacted in
     place after each window — no per-window rescans of the whole list. *)
  let pending = Array.init nf (fun k -> k) in
  let n_pending = ref nf in
  let b = ref 0 and late = ref false in
  while !b < nb && !n_pending > 0 && not !late do
    if budget_left () < 0.0 then late := true
    else begin
      let w = min Fsim.Engine.max_group (nb - !b) in
      let alive = Array.sub pending 0 !n_pending in
      let simulate_window () =
        Fsim.Engine.detect_dropping ~obs:sink ~jobs c
          ~faults:(Array.map (fun k -> faults.(k)) alive)
          ~observe:c.Circuit.outputs
          ~stimuli:(Array.to_list (Array.sub blocks !b w))
      in
      match
        if keep_going then Retry.run simulate_window
        else Stdlib.Ok (simulate_window ())
      with
      | Stdlib.Error (e, _bt) ->
        (* Cohort containment: cross-block fault dropping means a lost
           window could have changed every still-pending fault's
           downstream outcome, so a permanently failing engine call
           quarantines the whole pending cohort and ends the phase —
           detections already made stay trustworthy. *)
        failed := alive;
        n_pending := 0;
        Sink.event sink ~kind:"cohort_failed"
          [
            ("phase", Json.String "step2-fsim");
            ("faults", Json.Int (Array.length alive));
            ("error", Json.String (Printexc.to_string e));
          ]
      | Stdlib.Ok res ->
        let kept = ref 0 in
        Array.iteri
          (fun j k ->
            match res.(j) with
            | Some (lb, t) ->
              outcome.(k) <- Some (!b + lb, t);
              incr n_hit
            | None ->
              pending.(!kept) <- k;
              incr kept)
          alive;
        n_pending := !kept;
        b := !b + w;
        if sink.Sink.enabled then begin
          Metrics.Counter.add
            (Metrics.counter sink.Sink.metrics "flow.step2.blocks")
            w;
          Sink.tick sink ~phase:"step2-fsim" ~done_:!b ~total:nb
            ~detected:!n_hit ~failed:failed_before
            ~budget_left:(budget_left ()) ()
        end
    end
  done;
  let curve =
    let per_block = Array.make (nb + 1) 0 in
    Array.iter
      (function
        | Some (block, _) -> per_block.(block + 1) <- per_block.(block + 1) + 1
        | None -> ())
      outcome;
    let acc = ref 0 in
    Array.mapi
      (fun i d ->
        acc := !acc + d;
        (i, !acc))
      per_block
  in
  { outcome; curve; late = !late; failed = !failed }

let fsim_step2 ~(cfg : Config.t) ~budget ~acct ~verdicts scanned ~hard_faults
    ~(plan : plan) =
  let dl = Budget.deadline budget Budget.Step2_fsim in
  let t1 = Clock.now () in
  (* Proven-untestable faults — PODEM-proven and statically proven alike —
     are excluded from simulation: they cannot be detected and would waste
     machine slots. Faults quarantined in step 2a are simulated: a
     detection supersedes the quarantine, since the fault is provably
     covered. *)
  let simulate =
    Array.of_list
      (indices verdicts (function
        | Untestable_static | Untestable_step2 -> false
        | _ -> true))
  in
  let blocks = Array.of_list plan.blocks in
  let w =
    fsim_windows ~sink:cfg.Config.sink ~jobs:cfg.Config.jobs
      ~keep_going:(cfg.Config.on_error = `Keep_going)
      ~budget_left:(fun () -> Clock.remaining dl)
      ~failed_before:acct.s2a_failed scanned
      ~faults:(Array.map (fun i -> hard_faults.(i)) simulate)
      blocks
  in
  if w.late then acct.s2f_late <- true;
  (* A quarantined fault takes no part in step 3: it stays in the failed
     bucket rather than getting further (possibly poisoned) attention. *)
  Array.iter (fun k -> verdicts.(simulate.(k)) <- Failed) w.failed;
  acct.s2f_failed <- acct.s2f_failed + Array.length w.failed;
  let fsim_seconds = Clock.now () -. t1 in
  Array.iteri
    (fun k i ->
      if Option.is_some w.outcome.(k) then verdicts.(i) <- Detected_step2)
    simulate;
  let detected = count verdicts Detected_step2 in
  let untestable = count verdicts Untestable_step2 in
  {
    detected;
    untestable;
    undetected =
      Array.length verdicts - detected - untestable
      - count verdicts Untestable_static;
    vectors = Array.length blocks;
    atpg_seconds = plan.plan_atpg_seconds;
    fsim_seconds;
    curve = w.curve;
  }

(* --- Step 3: grouped sequential ATPG ------------------------------------ *)

(* Chain position lookup: flip-flop net -> (chain, position). *)
let positions_of config =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun ch ->
      Array.iteri
        (fun pos ff -> Hashtbl.replace tbl ff (ch.Scan.index, pos))
        ch.Scan.ffs)
    config.Scan.chains;
  tbl

let predicates_of_bounds positions bounds =
  let controllable ff =
    match Hashtbl.find_opt positions ff with
    | None -> false (* every flip-flop lies on a chain after TPI *)
    | Some (chain, pos) -> (
      match List.assoc_opt chain bounds with
      | None -> true (* unaffected chain: fully controllable *)
      | Some (m, _) -> pos < m)
  in
  let observable ff =
    match Hashtbl.find_opt positions ff with
    | None -> false
    | Some (chain, pos) -> (
      match List.assoc_opt chain bounds with
      | None -> true
      | Some (_, o) -> pos >= o)
  in
  (controllable, observable)

(* Fault-simulates a realized sequence against every pending fault of
   [verdicts], marks the detections [Detected_step3] and returns them. *)
let retire_detections ~sink ~jobs verdicts scanned ~hard_faults ~stim =
  let ids = indices verdicts pending in
  let outcome =
    Fsim.Engine.detect_all ~obs:sink ~jobs scanned
      ~faults:(Array.of_list (List.map (fun i -> hard_faults.(i)) ids))
      ~observe:scanned.Circuit.outputs stim
  in
  List.filteri
    (fun k i ->
      match outcome.(k) with
      | Some _ ->
        verdicts.(i) <- Detected_step3;
        true
      | None -> false)
    ids

(* What one attempted step-3 target produced: an ATPG abort ([late] when
   the step-3 budget had already expired), or the faults its realized
   sequence detected. *)
type target_outcome = Target_aborted of { late : bool } | Realized of int list

(* Sequential-ATPG planning for one fault: realize a detecting sequence on
   the bounded model, without touching any shared state (safe to run on a
   pool domain). [should_abort] folds the per-fault wall-clock deadline
   with the wave's cancellation token, so one stuck target cannot pin a
   domain past its budget. [memo] holds the models of earlier targets
   with the same [bounds]; without one, each model is built for this
   target and dropped after it. *)
let plan_sequence ~sink scanned config ~hard_faults ~bounds ~positions
    ~frames ~backtrack ~should_abort ?memo target =
  let controllable, observable = predicates_of_bounds positions bounds in
  match
    timed_atpg sink
      (Printf.sprintf "seq[%d]" target)
      (fun () ->
        Seq.run ~should_abort ?memo scanned
          ~constraints:config.Scan.constraints
          ~controllable_ff:controllable ~observable_ff:observable
          ~fault:hard_faults.(target) ~frames_list:frames
          ~backtrack_limit:backtrack)
  with
  | Seq.Seq_aborted, stats -> (None, stats)
  | Seq.Seq_test test, stats ->
    (Some (Sequences.of_seq_test scanned config test), stats)

let run_step3 ~(cfg : Config.t) ~budget ~acct ~verdicts ~progress
    ~save_progress scanned config ~classify ~hard_faults ~view ~scoap =
  let sink = cfg.Config.sink in
  let keep_going = cfg.Config.on_error = `Keep_going in
  let dl3 = Budget.deadline budget Budget.Step3 in
  let t0 = Clock.now () in
  let footprint i =
    let info = classify.Classify.infos.(classify.Classify.hard.(i)) in
    Group.footprint_of ~index:i
      ~locations:
        (List.map (fun (chain, seg, _) -> (chain, seg)) info.Classify.locations)
  in
  let maxsize = Sequences.max_chain_length config in
  let dist =
    Group.paper_params ~maxsize ~floor_scale:cfg.Config.dist_floor_scale
  in
  (* The groups cover the faults step 2 left pending. A resumed run
     rebuilds them deterministically from the verdicts, where that cohort
     is every fault still pending or settled by step 3. A poisoned wave
     quarantines the pending cohort ([acct.s3_failed > 0]) among step 2's
     quarantined faults, but it also ends the waves, so no group is left
     to rebuild then. *)
  let groups =
    if acct.s3_failed > 0 then [||]
    else
      indices verdicts (fun v ->
          pending v || v = Detected_step3 || v = Untestable_step3)
      |> List.map footprint |> Group.make dist |> Array.of_list
  in
  let n_groups = Array.length groups in
  let positions = positions_of config in
  let cursor = ref 0 and group_circuits = ref 0 and seconds_before = ref 0.0 in
  Option.iter
    (fun p ->
      cursor := p.cursor;
      group_circuits := p.p_group_circuits;
      seconds_before := p.seconds_before)
    progress;
  let final_circuits = ref 0 in
  let targets_of group =
    match group with
    | Group.Solo fp -> [ fp ]
    | Group.Shared { leader; members } -> leader :: members
    | Group.Cluster { members; _ } -> members
  in
  let pending_targets targets =
    List.filter (fun fp -> pending verdicts.(fp.Group.index)) targets
  in
  (* A denied attempt: the fault is reported [Aborted] unless a later
     attempt settles it. *)
  let deny i = if pending verdicts.(i) then verdicts.(i) <- Aborted in
  let token = Pool.token () in
  (* The failure policy as a retry policy: under [`Fail_fast] nothing is
     retried and the first failure is re-raised; under [`Keep_going]
     transient failures are retried and a permanent one is contained. *)
  let policy = if keep_going then Retry.default else Retry.no_retry in
  (* Set when a finals retirement engine call permanently fails under
     [`Keep_going]. *)
  let engine_poisoned = ref false in
  let retire_final stim =
    match
      Retry.run ~policy (fun () ->
          retire_detections ~sink ~jobs:cfg.Config.jobs verdicts scanned
            ~hard_faults ~stim)
    with
    | Stdlib.Ok _ -> ()
    | Stdlib.Error (e, bt) ->
      if not keep_going then Printexc.raise_with_backtrace e bt;
      engine_poisoned := true;
      Sink.event sink ~kind:"engine_failed"
        [
          ("phase", Json.String "finals");
          ("error", Json.String (Printexc.to_string e));
        ]
  in
  (* Cohort containment: once a group's task (planning or retirement) or
     a finals retirement engine call permanently fails, every pending
     fault's downstream outcome is suspect (the missing stimuli would
     have retired an unknowable subset of them), so the whole pending
     cohort moves to the failed bucket. Retries make this a last resort,
     and the already-committed detections stay trustworthy. *)
  let cohort_fail phase =
    let cohort = indices verdicts pending in
    List.iter (fun i -> verdicts.(i) <- Failed) cohort;
    let n = List.length cohort in
    (match phase with
     | `Step3 -> acct.s3_failed <- acct.s3_failed + n
     | `Finals -> acct.fin_failed <- acct.fin_failed + n);
    Sink.event sink ~kind:"cohort_failed"
      [
        ( "phase",
          Json.String (match phase with `Step3 -> "step3" | `Finals -> "finals")
        );
        ("faults", Json.Int n);
      ]
  in
  let checkpoint_wave () =
    save_progress
      {
        cursor = !cursor;
        p_group_circuits = !group_circuits;
        seconds_before = !seconds_before +. (Clock.now () -. t0);
      }
  in
  (* A group whose task never ran: its pending members were denied their
     attempt. *)
  let cancel_group targets =
    acct.s3_late <- true;
    match pending_targets targets with
    | [] -> ()
    | denied ->
      acct.s3_cancelled <- acct.s3_cancelled + 1;
      List.iter (fun fp -> deny fp.Group.index) denied
  in
  (* One pool task per group, run against a copy of the verdicts as of
     the wave's start: the group's targets are attacked in order, and each
     realized sequence is retired against that copy, so a member an
     earlier target already detected is never planned. All targets share
     the group's bounds, so they share its models too. *)
  let plan_group (bounds, targets) =
    let local = Array.copy verdicts in
    let memo = Seq.memo () in
    List.filter_map
      (fun fp ->
        let i = fp.Group.index in
        if not (pending local.(i)) then None
        else begin
          let dlf =
            Budget.fault_deadline budget Budget.Step3
              cfg.Config.seq_fault_seconds
          in
          let stim, stats =
            plan_sequence ~sink scanned config ~hard_faults ~bounds
              ~positions ~frames:cfg.Config.frames
              ~backtrack:cfg.Config.seq_backtrack
              ~should_abort:(fun () ->
                Clock.expired dlf || Pool.cancelled token)
              ~memo i
          in
          let outcome =
            match stim with
            | None -> Target_aborted { late = Clock.expired dl3 }
            | Some stim ->
              Realized
                (retire_detections ~sink ~jobs:1 local scanned ~hard_faults
                   ~stim)
          in
          Some (i, stats, outcome)
        end)
      targets
  in
  (* Commits one group's results on the main domain: only faults still
     pending are credited, so a fault two groups of one wave both detect
     counts once. *)
  let commit_group results =
    incr group_circuits;
    List.iter
      (fun (i, stats, outcome) ->
        add_seq_stats ~sink acct stats;
        match outcome with
        | Target_aborted { late } ->
          acct.s3_aborts <- acct.s3_aborts + 1;
          if late then deny i
        | Realized hits ->
          List.iter
            (fun h -> if pending verdicts.(h) then verdicts.(h) <- Detected_step3)
            hits)
      results
  in
  (* Waves of up to [jobs] groups with a pending target. The groups of a
     wave are planned on the pool and committed in group order on the
     main domain, so the result for a fixed [jobs] is deterministic; at
     [jobs = 1] every group sees all earlier detections. A tripped budget
     cancels the wave's unclaimed groups cooperatively. *)
  while !cursor < n_groups do
    if Clock.expired dl3 || Pool.cancelled token then begin
      for g = !cursor to n_groups - 1 do
        cancel_group (targets_of groups.(g))
      done;
      cursor := n_groups
    end
    else begin
      let jobs = cfg.Config.jobs in
      let wave_no = !cursor in
      let wave = ref [] in
      while List.length !wave < jobs && !cursor < n_groups do
        let group = groups.(!cursor) in
        incr cursor;
        let targets = targets_of group in
        if pending_targets targets <> [] then
          wave := (Group.bounds_of_group group, targets) :: !wave
      done;
      let wave_arr = Array.of_list (List.rev !wave) in
      let wave_poisoned = ref false in
      Sink.span sink
        ~name:(Printf.sprintf "step3.wave@%d" wave_no)
        ~cat:"step3"
        (fun () ->
          Pool.map_cancellable_isolated ~obs:sink ~label:"step3" ~jobs
            ~chunk:1 ~retry:policy ~token ~deadline:dl3 plan_group wave_arr
          |> Array.iteri (fun w outcome ->
                 match outcome with
                 | Pool.Task.Ok results -> commit_group results
                 | Pool.Task.Failed (e, bt) ->
                   if not keep_going then Printexc.raise_with_backtrace e bt;
                   acct.s3_failed_groups <- acct.s3_failed_groups + 1;
                   wave_poisoned := true;
                   Sink.event sink ~kind:"group_failed"
                     [
                       ("phase", Json.String "step3");
                       ("wave", Json.Int wave_no);
                       ("error", Json.String (Printexc.to_string e));
                     ]
                 | Pool.Task.Cancelled ->
                   (* Under [`Keep_going] with budget left, cancellation can
                      only come from an injected [Cancel]: that is a
                      failure, not an abort. *)
                   if keep_going && not (Clock.expired dl3) then
                     wave_poisoned := true
                   else cancel_group (snd wave_arr.(w))));
      if !wave_poisoned then begin
        cohort_fail `Step3;
        cursor := n_groups
      end;
      checkpoint_wave ();
      if sink.Sink.enabled then
        Sink.tick sink ~phase:"step3" ~done_:!cursor ~total:n_groups
          ~detected:(count verdicts Detected_step3) ~failed:acct.s3_failed
          ~quarantined:acct.s3_failed_groups
          ~budget_left:(Clock.remaining dl3) ()
    end
  done;
  (* Final faults: prove undetectable through the relaxed combinational
     model where possible, otherwise target individually with a larger
     budget (the paper's "additional time"). *)
  let dl_fin = Budget.deadline budget Budget.Finals in
  (* A final target's models are built for it and dropped after it. A
     memo over consecutive targets with equal spans would keep every
     frame count's model live at once (1 + 2 + 4 + 8 frames by default,
     nearly twice the largest model alone) and raise the peak heap. *)
  let attack_final i =
    let dlf =
      Budget.fault_deadline budget Budget.Finals
        cfg.Config.final_fault_seconds
    in
    incr final_circuits;
    match
      plan_sequence ~sink scanned config ~hard_faults
        ~bounds:(footprint i).Group.spans ~positions
        ~frames:cfg.Config.final_frames
        ~backtrack:cfg.Config.final_backtrack
        ~should_abort:(fun () -> Clock.expired dlf)
        i
    with
    | None, stats ->
      add_seq_stats ~sink acct stats;
      acct.fin_aborts <- acct.fin_aborts + 1;
      if Clock.expired dl_fin then deny i
    | Some stim, stats ->
      add_seq_stats ~sink acct stats;
      retire_final stim
  in
  List.iter
    (fun i ->
      if pending verdicts.(i) then begin
        (try
           if Clock.expired dl_fin then begin
             acct.fin_late <- true;
             acct.fin_cancelled <- acct.fin_cancelled + 1;
             deny i
           end
           else begin
             match
               timed_atpg sink
                 (Printf.sprintf "podem.final[%d]" i)
                 (fun () ->
                   Podem.run ~backtrack_limit:cfg.Config.final_backtrack
                     ~should_abort:(fun () -> Clock.expired dl_fin)
                     ~scoap view ~faults:[ hard_faults.(i) ])
             with
             | Podem.Untestable, stats ->
               add_podem_stats ~sink acct stats;
               verdicts.(i) <- Untestable_step3
             | Podem.Test assignment, stats ->
               add_podem_stats ~sink acct stats;
               (* The larger budget found a combinational test that step 2
                  missed; realize and confirm it sequentially before falling
                  back to the restricted sequential model. *)
               let ff_values, pi_values =
                 split_assignment scanned assignment
               in
               let stim =
                 Sequences.of_comb_test scanned config ~ff_values ~pi_values
               in
               retire_final stim;
               if pending verdicts.(i) && not !engine_poisoned then
                 attack_final i
             | Podem.Aborted, stats ->
               add_podem_stats ~sink acct stats;
               if Clock.expired dl_fin then
                 acct.p_ab_deadline <- acct.p_ab_deadline + 1
               else acct.p_ab_limit <- acct.p_ab_limit + 1;
               acct.fin_aborts <- acct.fin_aborts + 1;
               attack_final i
           end
         with e when keep_going ->
           Sink.event sink ~kind:"fault_failed"
             [
               ("phase", Json.String "finals");
               ("fault", Json.Int i);
               ("error", Json.String (Printexc.to_string e));
             ];
           cohort_fail `Finals);
        if keep_going && !engine_poisoned && Array.exists pending verdicts
        then cohort_fail `Finals
      end)
    (indices verdicts pending);
  {
    detected = count verdicts Detected_step3;
    untestable = count verdicts Untestable_step3;
    undetected = count verdicts Undetected;
    group_circuits = !group_circuits;
    final_circuits = !final_circuits;
    seconds = !seconds_before +. (Clock.now () -. t0);
  }

(* --- orchestration ------------------------------------------------------ *)

(* OCaml 5.1 scales each major slice's work by the total heap size,
   garbage included, so at the runtime's default space overhead (120) a
   heap left large by one phase collects the next phase's garbage more
   lazily, and the peak heap ratchets upwards over consecutive flows in
   one process. On s38417 at scale 0.058 (fsim-tail) the peak was 3.6M
   words in the first flow and 4.3M to 5.2M in the second, with under 1M
   words live. At 80 the second and third flows peak within 1.5 MB of
   the first. *)
let space_overhead = 80

let lower_space_overhead () =
  let g = Gc.get () in
  if g.Gc.space_overhead > space_overhead then
    Gc.set { g with Gc.space_overhead }

let run ?config:(cfg : Config.t option) ?budget ?checkpoint ?(resume = false)
    ?on_checkpoint ?on_resume scanned config =
  lower_space_overhead ();
  let cfg = match cfg with Some c -> c | None -> Config.default in
  let budget =
    match budget with Some b -> b | None -> Config.budget cfg
  in
  let sink = cfg.Config.sink in
  if sink.Sink.enabled then
    Sink.event sink ~kind:"config" [ ("config", Config.to_json cfg) ];
  (* Optional lint pre-flight: catch a broken scan configuration (shape,
     sensitization, parity) before spending the ATPG budget on it. Static
     rules only — a pure observer of the inputs. *)
  if cfg.Config.preflight then begin
    let report = Fst_lint.Lint.run ~config scanned in
    if report.Fst_lint.Lint.errors > 0 then
      raise
        (Preflight_failed
           (List.filter
              (fun d ->
                d.Fst_lint.Diagnostic.severity = Fst_lint.Diagnostic.Error)
              report.Fst_lint.Lint.diagnostics))
  end;
  let keep_going = cfg.Config.on_error = `Keep_going in
  let faults = Fault.collapse scanned (Fault.universe scanned) in
  let fp = fingerprint scanned config cfg in
  let notify_resume outcome =
    match on_resume with Some f -> f outcome | None -> ()
  in
  let ck =
    let loaded =
      if resume then
        match checkpoint with
        | Some path -> (
          match
            Checkpoint.load ~path ~fingerprint:fp ~version:ckpt_version
          with
          | Stdlib.Ok (ck, src) ->
            notify_resume (`Loaded src);
            Sink.event sink ~kind:"resume"
              [
                ("path", Json.String path);
                ( "source",
                  Json.String
                    (match src with
                     | Checkpoint.Primary -> "primary"
                     | Checkpoint.Recovered -> "recovered") );
              ];
            Some ck
          | Stdlib.Error err ->
            notify_resume (`Failed err);
            Sink.event sink ~kind:"resume"
              [
                ("path", Json.String path);
                ("error", Json.String (Checkpoint.error_to_string err));
              ];
            None)
        | None -> None
      else None
    in
    match loaded with Some ck -> ck | None -> fresh_ckpt ()
  in
  (* A resumed chaos run replays the plan from the persisted sequence
     numbers, so the interrupted and uninterrupted runs see the same
     injections. The [Ckpt_save] hook in [save] below ticks {e before}
     the snapshot is taken, keeping save-site numbering aligned across
     the kill/resume boundary. *)
  if Chaos.active () && ck.c_chaos <> [||] then Chaos.restore ck.c_chaos;
  let save stage =
    (match checkpoint with
     | Some path ->
       let write () =
         (match Chaos.point Chaos.Ckpt_save with `Ok | `Cancel -> ());
         ck.c_chaos <- (if Chaos.active () then Chaos.snapshot () else [||]);
         Checkpoint.save ~path ~fingerprint:fp ~version:ckpt_version ck
       in
       let res =
         if keep_going then Retry.run write else Stdlib.Ok (write ())
       in
       (match res with
        | Stdlib.Ok () ->
          Sink.event sink ~kind:"checkpoint"
            [ ("stage", Json.String stage); ("path", Json.String path) ]
        | Stdlib.Error (e, bt) ->
          (* Keep-going: a checkpoint that cannot be written is skipped —
             the run still completes, it just resumes from an older
             wave. *)
          if keep_going then
            Sink.event sink ~kind:"checkpoint_failed"
              [
                ("stage", Json.String stage);
                ("path", Json.String path);
                ("error", Json.String (Printexc.to_string e));
              ]
          else Printexc.raise_with_backtrace e bt)
     | None -> ());
    match on_checkpoint with Some f -> f stage | None -> ()
  in
  (* Phase 1: classification. Runs to completion even under a tiny budget —
     every later phase's accounting is defined in terms of the hard-fault
     set, so there is no meaningful way to truncate it. *)
  let classify, classify_seconds =
    match ck.c_classify with
    | Some (c, s) -> (c, s)
    | None ->
      phase_obs sink "classify" (fun () ->
          let t0 = Clock.now () in
          let c = Classify.run scanned config faults in
          let s = Clock.now () -. t0 in
          if Clock.expired (Budget.deadline budget Budget.Classify) then
            ck.acct.cl_late <- true;
          ck.c_classify <- Some (c, s);
          ck.verdicts <- Array.make (Array.length c.Classify.hard) Aborted;
          save "classify";
          (c, s))
  in
  let verdicts = ck.verdicts in
  let hard_faults =
    Array.map
      (fun i -> classify.Classify.infos.(i).Classify.fault)
      classify.Classify.hard
  in
  let view = View.scan_mode scanned ~constraints:config.Scan.constraints in
  let scoap = Fst_testability.Scoap.compute view in
  (* Phase 0 (static): ternary constant propagation, the implication graph
     and the fault-independent untestability proofs ({!Fst_sca.Sca}) over
     the scan-mode model. The implication graph itself is not persisted:
     the analysis is pure and deterministic. *)
  let sca_stats =
    if not cfg.Config.sca_prune then None
    else
      match ck.c_sca with
      | Some s -> Some s
      | None ->
        phase_obs sink "sca" (fun () ->
            let t = Fst_sca.Sca.analyze view ~faults:hard_faults in
            let tbl = Hashtbl.create 64 in
            List.iter
              (fun (u : Fst_sca.Sca.untestable) ->
                Hashtbl.replace tbl u.Fst_sca.Sca.fault ())
              t.Fst_sca.Sca.untestable;
            Array.iteri
              (fun i f ->
                if Hashtbl.mem tbl f then verdicts.(i) <- Untestable_static)
              hard_faults;
            ck.c_sca <- Some t.Fst_sca.Sca.stats;
            save "sca";
            Some t.Fst_sca.Sca.stats)
  in
  (* Phase 2a: combinational ATPG over the hard faults. *)
  let plan =
    match ck.c_plan with
    | Some p -> p
    | None ->
      phase_obs sink "step2-atpg" (fun () ->
          let p =
            plan_step2 ~cfg ~budget ~acct:ck.acct ~verdicts view scoap scanned
              config ~hard_faults
          in
          ck.c_plan <- Some p;
          save "step2-atpg";
          p)
  in
  (* Phase 2b: sequential fault simulation of the realized sequences. *)
  let step2 =
    match ck.c_s2 with
    | Some s -> s
    | None ->
      phase_obs sink "step2-fsim" (fun () ->
          let s =
            fsim_step2 ~cfg ~budget ~acct:ck.acct ~verdicts scanned
              ~hard_faults ~plan
          in
          ck.c_s2 <- Some s;
          save "step2-fsim";
          s)
  in
  (* Phases 3 and 4: grouped sequential ATPG waves, then final targeting. *)
  let step3 =
    match ck.c_fin with
    | Some s -> s
    | None ->
      phase_obs sink "step3" (fun () ->
          let s =
            run_step3 ~cfg ~budget ~acct:ck.acct ~verdicts ~progress:ck.c_s3
              ~save_progress:(fun p ->
                ck.c_s3 <- Some p;
                save "step3-wave")
              scanned config ~classify ~hard_faults ~view ~scoap
          in
          ck.c_fin <- Some s;
          save "finished";
          s)
  in
  let aborts = aborts_of ck.acct in
  if sink.Sink.enabled then begin
    (* The machine-readable counterpart of the report's [aborts:] lines. *)
    List.iter
      (fun p ->
        if
          p.budget_exhausted || p.atpg_aborts > 0 || p.cancelled_groups > 0
          || p.failed > 0
        then
          Sink.event sink ~kind:"aborts"
            [
              ("phase", Json.String p.phase);
              ("budget_exhausted", Json.Bool p.budget_exhausted);
              ("atpg_aborts", Json.Int p.atpg_aborts);
              ("cancelled_groups", Json.Int p.cancelled_groups);
              ("failed", Json.Int p.failed);
            ])
      aborts;
    let m = sink.Sink.metrics in
    let set_c name v = Metrics.Counter.add (Metrics.counter m name) v in
    set_c "atpg.podem.runs" ck.acct.p_runs;
    set_c "atpg.podem.backtracks" ck.acct.p_backtracks;
    set_c "atpg.podem.decisions" ck.acct.p_decisions;
    set_c "atpg.podem.implications" ck.acct.p_implications;
    set_c "atpg.podem.aborted_limit" ck.acct.p_ab_limit;
    set_c "atpg.podem.aborted_deadline" ck.acct.p_ab_deadline;
    set_c "atpg.seq.runs" ck.acct.s_runs;
    set_c "atpg.seq.backtracks" ck.acct.s_backtracks;
    set_c "flow.failed_groups" ck.acct.s3_failed_groups;
    set_c "flow.failed_faults" (count verdicts Failed);
    match sca_stats with
    | None -> ()
    | Some s ->
      set_c "sca.constants" s.Fst_sca.Sca.constants;
      set_c "sca.implications" s.Fst_sca.Sca.implications;
      set_c "sca.learned" s.Fst_sca.Sca.learned;
      set_c "sca.impossible" s.Fst_sca.Sca.impossible;
      set_c "sca.untestable" s.Fst_sca.Sca.untestable;
      set_c "sca.untestable_static" (count verdicts Untestable_static)
  end;
  {
    scanned;
    config;
    faults;
    classify;
    classify_seconds;
    step2;
    step3;
    verdicts;
    aborts;
    atpg = atpg_stats_of ck.acct;
  }
