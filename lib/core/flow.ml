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

type aborts = {
  phases : phase_aborts list;
  aborted_faults : int;
  failed_faults : int;
}

let budget_exhausted a = List.exists (fun p -> p.budget_exhausted) a.phases
let atpg_aborts a = List.fold_left (fun n p -> n + p.atpg_aborts) 0 a.phases

let cancelled_groups a =
  List.fold_left (fun n p -> n + p.cancelled_groups) 0 a.phases

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

type result = {
  scanned : Circuit.t;
  config : Scan.config;
  faults : Fault.t array;
  classify : Classify.t;
  classify_seconds : float;
  step2 : step2;
  step3 : step3;
  undetected : Fault.t list;
  untestable_faults : Fault.t list;
  untestable_static : Fault.t list;
  aborted : Fault.t list;
  failed : Fault.t list;
  aborts : aborts;
  atpg : atpg_stats;
}

let total_faults r = Array.length r.faults
let affecting r = r.classify.Classify.affecting

(* Everything the chain-testing phase credits as detected: the category-1
   faults (alternating sequence) plus the hard faults that neither stayed
   undetected (or budget-aborted) nor were proven untestable. *)
let chain_detected_faults r =
  let open_set = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace open_set f ()) r.undetected;
  List.iter (fun f -> Hashtbl.replace open_set f ()) r.aborted;
  List.iter (fun f -> Hashtbl.replace open_set f ()) r.failed;
  List.iter (fun f -> Hashtbl.replace open_set f ()) r.untestable_faults;
  List.iter (fun f -> Hashtbl.replace open_set f ()) r.untestable_static;
  let easy =
    Array.to_list r.classify.Classify.easy
    |> List.map (fun i -> r.faults.(i))
  in
  let hard_detected =
    Array.to_list r.classify.Classify.hard
    |> List.filter_map (fun i ->
           let f = r.faults.(i) in
           if Hashtbl.mem open_set f then None else Some f)
  in
  easy @ hard_detected

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

let aborts_of acct ~aborted_faults ~failed_faults =
  {
    phases =
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
      ];
    aborted_faults;
    failed_faults;
  }

(* --- checkpoint state --------------------------------------------------- *)

(* Bump whenever the marshalled layout below (or anything it embeds)
   changes; [Checkpoint.load] rejects other versions.
   v3: failed_flag + chaos counters + acct failed fields.
   v4: phase-0 static-analysis summary ([c_sca]). *)
let ckpt_version = 4

(* What the flow keeps of the phase-0 static analysis: the per-hard-fault
   untestability verdicts (everything later phases consult) and the
   analysis statistics for the end-of-run metrics. The implication graph
   itself is not persisted — the analysis is pure and deterministic, so a
   resumed run that still needs the PODEM hints just recomputes it. *)
type sca_summary = {
  static_flag : bool array;  (* per hard fault: statically proven untestable *)
  sca_stats : Fst_sca.Sca.stats;
}

type plan = {
  blocks : Fsim.stimulus list;
  untestable2 : int list;  (* indices into the hard-fault array, ascending *)
  attempted : int;  (* hard faults that actually got their PODEM attempt *)
  plan_atpg_seconds : float;
  rng_state : int64;
}

type s2_state = {
  s2_step2 : step2;
  s2_remaining : int list;  (* indices into the hard-fault array, ascending *)
}

type s3_progress = {
  cursor : int;  (* groups already committed *)
  alive_idx : int list;  (* step-3 indices still alive *)
  p_detected3 : int;
  p_group_circuits : int;
  seconds_before : float;  (* step-3 wall clock spent before this resume *)
}

type finish = {
  f_step3 : step3;
  undetected_idx : int list;  (* indices into the remaining-fault array *)
  aborted_idx : int list;
  untestable3_idx : int list;
}

type ckpt = {
  mutable c_classify : (Classify.t * float) option;
  mutable c_sca : sca_summary option;
  mutable c_plan : plan option;
  mutable c_s2 : s2_state option;
  mutable c_s3 : s3_progress option;
  mutable c_fin : finish option;
  mutable aborted_flag : bool array;  (* per hard fault: denied an attempt *)
  mutable failed_flag : bool array;  (* per hard fault: quarantined *)
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
    aborted_flag = [||];
    failed_flag = [||];
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

let plan_step2 ~(cfg : Config.t) ~budget ~acct ~aborted_flag ~failed_flag
    ~static_flag view scoap scanned config ~hard_faults =
  let sink = cfg.Config.sink in
  let keep_going = cfg.Config.on_error = `Keep_going in
  let dl = Budget.deadline budget Budget.Step2_atpg in
  let t0 = Clock.now () in
  let n = Array.length hard_faults in
  let blocks = ref [] and untestable = ref [] in
  let n_tests = ref 0 in
  let i = ref 0 in
  while !i < n && not (Clock.expired dl) do
    if static_flag.(!i) then
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
           incr n_tests;
           let ff_values, pi_values = split_assignment scanned assignment in
           blocks :=
             Sequences.of_comb_test scanned config ~ff_values ~pi_values
             :: !blocks
         | Podem.Untestable, stats ->
           add_podem_stats ~sink acct stats;
           untestable := !i :: !untestable
         | Podem.Aborted, stats ->
           add_podem_stats ~sink acct stats;
           acct.s2a_aborts <- acct.s2a_aborts + 1;
           (* A deadline-tripped abort (as opposed to a backtrack-limit one)
              means the fault was denied its full attempt. *)
           if Clock.expired dl then begin
             acct.p_ab_deadline <- acct.p_ab_deadline + 1;
             aborted_flag.(!i) <- true
           end
           else acct.p_ab_limit <- acct.p_ab_limit + 1
       with e when keep_going ->
         failed_flag.(!i) <- true;
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
  let attempted = !i in
  if attempted < n then begin
    acct.s2a_late <- true;
    for k = attempted to n - 1 do
      if not static_flag.(k) then aborted_flag.(k) <- true
    done
  end;
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
  {
    blocks;
    untestable2 = List.rev !untestable;
    attempted;
    plan_atpg_seconds = Clock.now () -. t0;
    rng_state = Fst_gen.Rng.state rng;
  }

type windows = {
  outcome : (int * int) option array;
  curve : (int * int) array;
  late : bool;
  failed : int array;
}

(* Step-2 fault simulation steps by windows of up to [max_group] blocks:
   one dropping engine call per window on the faults still pending, so
   the good machine of a window is recorded once (pattern-packed, the
   engine's choice) instead of once per block. Cross-block dropping makes
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

let fsim_step2 ~(cfg : Config.t) ~budget ~acct ~failed_flag
    ~static_flag scanned ~hard_faults ~(plan : plan) =
  let dl = Budget.deadline budget Budget.Step2_fsim in
  let t1 = Clock.now () in
  let n = Array.length hard_faults in
  let untestable_set = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace untestable_set i ()) plan.untestable2;
  (* Untestable faults — PODEM-proven and statically proven alike — are
     excluded from simulation: they cannot be detected and would waste
     machine slots. *)
  let simulate =
    Array.of_list
      (List.filter
         (fun i -> (not (Hashtbl.mem untestable_set i)) && not static_flag.(i))
         (List.init n (fun i -> i)))
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
  Array.iter (fun k -> failed_flag.(simulate.(k)) <- true) w.failed;
  acct.s2f_failed <- acct.s2f_failed + Array.length w.failed;
  let fsim_seconds = Clock.now () -. t1 in
  let detected = Array.make n false in
  Array.iteri
    (fun k i -> match w.outcome.(k) with
       | Some _ ->
         detected.(i) <- true;
         (* A detection supersedes an earlier step-2 quarantine: the
            fault is provably covered. *)
         failed_flag.(i) <- false
       | None -> ())
    simulate;
  let n_detected =
    Array.fold_left (fun a b -> if b then a + 1 else a) 0 detected
  in
  let n_untestable = List.length plan.untestable2 in
  let n_static =
    Array.fold_left (fun a b -> if b then a + 1 else a) 0 static_flag
  in
  let remaining = ref [] in
  (* Quarantined faults are excluded from step 3: a fault whose ATPG
     crashed, or that sat in a failed simulation cohort, stays in the
     failed bucket rather than getting further (possibly poisoned)
     attention. Statically proven faults are settled and take no further
     part either. *)
  for i = n - 1 downto 0 do
    if
      (not detected.(i))
      && (not (Hashtbl.mem untestable_set i))
      && (not static_flag.(i))
      && not failed_flag.(i)
    then remaining := i :: !remaining
  done;
  ( {
      detected = n_detected;
      untestable = n_untestable;
      undetected = n - n_detected - n_untestable - n_static;
      vectors = Array.length blocks;
      atpg_seconds = plan.plan_atpg_seconds;
      fsim_seconds;
      curve = w.curve;
    },
    !remaining )

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

type step3_state = {
  mutable detected3 : int;
  mutable untestable3 : int;
  mutable group_circuits : int;
  mutable final_circuits : int;
  alive : bool array; (* per remaining-fault index *)
}

(* The members of an alive set, ascending. *)
let alive_ids alive =
  let ids = ref [] in
  for i = Array.length alive - 1 downto 0 do
    if alive.(i) then ids := i :: !ids
  done;
  !ids

(* Fault-simulates a realized sequence against every fault in [alive]
   (remaining-fault indices), removes the detections from it and returns
   them. *)
let retire_detections ~sink ~jobs alive scanned ~remaining_faults ~stim =
  let alive_ids = alive_ids alive in
  let faults_arr =
    Array.of_list (List.map (fun i -> remaining_faults.(i)) alive_ids)
  in
  let outcome =
    Fsim.Engine.detect_all ~obs:sink ~jobs scanned ~faults:faults_arr
      ~observe:scanned.Circuit.outputs stim
  in
  List.filteri
    (fun k i ->
      match outcome.(k) with
      | Some _ ->
        alive.(i) <- false;
        true
      | None -> false)
    alive_ids

(* What one attempted step-3 target produced: an ATPG abort ([late] when
   the step-3 budget had already expired), or the faults its realized
   sequence detected. *)
type target_outcome = Aborted of { late : bool } | Realized of int list

(* Sequential-ATPG planning for one fault: realize a detecting sequence on
   the bounded model, without touching any shared state (safe to run on a
   pool domain). [should_abort] folds the per-fault wall-clock deadline
   with the wave's cancellation token, so one stuck target cannot pin a
   domain past its budget. [memo] holds the models of earlier targets
   with the same [bounds]; without one, each model is built for this
   target and dropped after it. *)
let plan_sequence ~sink scanned config ~remaining_faults ~bounds ~positions
    ~frames ~backtrack ~should_abort ?memo target_idx =
  let controllable, observable = predicates_of_bounds positions bounds in
  let fault = remaining_faults.(target_idx) in
  match
    timed_atpg sink
      (Printf.sprintf "seq[%d]" target_idx)
      (fun () ->
        Seq.run ~should_abort ?memo scanned
          ~constraints:config.Scan.constraints
          ~controllable_ff:controllable ~observable_ff:observable ~fault
          ~frames_list:frames ~backtrack_limit:backtrack)
  with
  | Seq.Seq_aborted, stats -> (None, stats)
  | Seq.Seq_test test, stats ->
    (Some (Sequences.of_seq_test scanned config test), stats)

let run_step3 ~(cfg : Config.t) ~budget ~acct ~aborted_flag ~failed_flag
    ~progress ~save_progress scanned config ~classify ~hard_index ~remaining
    ~view ~scoap =
  let sink = cfg.Config.sink in
  let keep_going = cfg.Config.on_error = `Keep_going in
  let dl3 = Budget.deadline budget Budget.Step3 in
  let t0 = Clock.now () in
  let remaining_arr = Array.of_list remaining in
  let remaining_faults =
    Array.map
      (fun i -> classify.Classify.infos.(hard_index.(i)).Classify.fault)
      remaining_arr
  in
  let footprints =
    Array.of_list
      (List.mapi
         (fun k i ->
           let info = classify.Classify.infos.(hard_index.(i)) in
           let locations =
             List.map
               (fun (chain, seg, _) -> (chain, seg))
               info.Classify.locations
           in
           Group.footprint_of ~index:k ~locations)
         remaining)
  in
  let maxsize = Sequences.max_chain_length config in
  let dist =
    Group.paper_params ~maxsize ~floor_scale:cfg.Config.dist_floor_scale
  in
  let groups = Array.of_list (Group.make dist (Array.to_list footprints)) in
  let n_groups = Array.length groups in
  let positions = positions_of config in
  let st =
    {
      detected3 = 0;
      untestable3 = 0;
      group_circuits = 0;
      final_circuits = 0;
      alive = Array.make (Array.length remaining_arr) false;
    }
  in
  let cursor = ref 0 and seconds_before = ref 0.0 in
  (match progress with
   | None -> Array.fill st.alive 0 (Array.length st.alive) true
   | Some p ->
     (* Resume mid-step-3: the groups are recomputed deterministically from
        the classification, so only the cursor, the alive set and the
        counters need restoring. *)
     List.iter (fun k -> st.alive.(k) <- true) p.alive_idx;
     cursor := p.cursor;
     st.detected3 <- p.p_detected3;
     st.group_circuits <- p.p_group_circuits;
     seconds_before := p.seconds_before);
  let untestable_idx3 = ref [] in
  let any_alive fps =
    List.exists (fun fp -> st.alive.(fp.Group.index)) fps
  in
  let targets_of group =
    match group with
    | Group.Solo fp -> [ fp ]
    | Group.Shared { leader; members } -> leader :: members
    | Group.Cluster { members; _ } -> members
  in
  let flag_idx i = aborted_flag.(remaining_arr.(i)) <- true in
  let fail_idx i = failed_flag.(remaining_arr.(i)) <- true in
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
          retire_detections ~sink ~jobs:cfg.Config.jobs st.alive scanned
            ~remaining_faults ~stim)
    with
    | Stdlib.Ok hits -> st.detected3 <- st.detected3 + List.length hits
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
     a finals retirement engine call permanently fails, every still-alive
     fault's downstream outcome is suspect (the missing stimuli would
     have retired an unknowable subset of them), so the whole remaining
     cohort moves to the failed bucket. Retries make this a last resort,
     and the already-committed detections stay trustworthy. *)
  let cohort_fail phase =
    let alive_ids = alive_ids st.alive in
    let count = List.length alive_ids in
    List.iter
      (fun i ->
        fail_idx i;
        st.alive.(i) <- false)
      alive_ids;
    (match phase with
     | `Step3 -> acct.s3_failed <- acct.s3_failed + count
     | `Finals -> acct.fin_failed <- acct.fin_failed + count);
    Sink.event sink ~kind:"cohort_failed"
      [
        ( "phase",
          Json.String (match phase with `Step3 -> "step3" | `Finals -> "finals")
        );
        ("faults", Json.Int count);
      ]
  in
  let checkpoint_wave () =
    save_progress
      {
        cursor = !cursor;
        alive_idx = alive_ids st.alive;
        p_detected3 = st.detected3;
        p_group_circuits = st.group_circuits;
        seconds_before = !seconds_before +. (Clock.now () -. t0);
      }
  in
  (* Accounts every group from the cursor onward as cancelled (with its
     alive members denied) when the phase budget trips. *)
  let drain_cancelled () =
    acct.s3_late <- true;
    for g = !cursor to n_groups - 1 do
      let alive_targets =
        List.filter
          (fun fp -> st.alive.(fp.Group.index))
          (targets_of groups.(g))
      in
      if alive_targets <> [] then begin
        acct.s3_cancelled <- acct.s3_cancelled + 1;
        List.iter (fun fp -> flag_idx fp.Group.index) alive_targets
      end
    done;
    cursor := n_groups
  in
  (* One pool task per group, run against the alive set as of the wave's
     start: the group's targets are attacked in order, and each realized
     sequence is retired against a task-local copy of that set, so a
     member an earlier target already detected is never planned. All
     targets share the group's bounds, so they share its models too. *)
  let plan_group (bounds, targets) =
    let alive = Array.copy st.alive in
    let memo = Seq.memo () in
    List.filter_map
      (fun fp ->
        let i = fp.Group.index in
        if not alive.(i) then None
        else begin
          let dlf =
            Budget.fault_deadline budget Budget.Step3
              cfg.Config.seq_fault_seconds
          in
          let stim, stats =
            plan_sequence ~sink scanned config ~remaining_faults ~bounds
              ~positions ~frames:cfg.Config.frames
              ~backtrack:cfg.Config.seq_backtrack
              ~should_abort:(fun () ->
                Clock.expired dlf || Pool.cancelled token)
              ~memo i
          in
          let outcome =
            match stim with
            | None -> Aborted { late = Clock.expired dl3 }
            | Some stim ->
              Realized
                (retire_detections ~sink ~jobs:1 alive scanned
                   ~remaining_faults ~stim)
          in
          Some (i, stats, outcome)
        end)
      targets
  in
  (* Commits one group's results on the main domain: only faults still
     alive are credited, so a fault two groups of one wave both detect
     counts once. *)
  let commit_group results =
    st.group_circuits <- st.group_circuits + 1;
    List.iter
      (fun (i, stats, outcome) ->
        add_seq_stats ~sink acct stats;
        match outcome with
        | Aborted { late } ->
          acct.s3_aborts <- acct.s3_aborts + 1;
          if late && st.alive.(i) then flag_idx i
        | Realized hits ->
          List.iter
            (fun h ->
              if st.alive.(h) then begin
                st.alive.(h) <- false;
                st.detected3 <- st.detected3 + 1
              end)
            hits)
      results
  in
  (* Waves of up to [jobs] groups with an alive target. The groups of a
     wave are planned on the pool and committed in group order on the
     main domain, so the result for a fixed [jobs] is deterministic; at
     [jobs = 1] every group sees all earlier detections. A tripped budget
     cancels the wave's unclaimed groups cooperatively. *)
  while !cursor < n_groups do
    if Clock.expired dl3 || Pool.cancelled token then drain_cancelled ()
    else begin
      let jobs = cfg.Config.jobs in
      let wave_no = !cursor in
      let wave = ref [] in
      while List.length !wave < jobs && !cursor < n_groups do
        let group = groups.(!cursor) in
        incr cursor;
        let targets = targets_of group in
        if any_alive targets then
          wave := (Group.bounds_of_group group, targets) :: !wave
      done;
      let wave_arr = Array.of_list (List.rev !wave) in
      (* The group's task never ran: its alive members were denied their
         attempt. *)
      let commit_cancelled w =
        let _, targets = wave_arr.(w) in
        let alive_targets =
          List.filter
            (fun fp -> st.alive.(fp.Group.index))
            targets
        in
        acct.s3_late <- true;
        if alive_targets <> [] then begin
          acct.s3_cancelled <- acct.s3_cancelled + 1;
          List.iter (fun fp -> flag_idx fp.Group.index) alive_targets
        end
      in
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
                   else commit_cancelled w));
      if !wave_poisoned then begin
        cohort_fail `Step3;
        cursor := n_groups
      end;
      checkpoint_wave ();
      if sink.Sink.enabled then
        Sink.tick sink ~phase:"step3" ~done_:!cursor ~total:n_groups
          ~detected:st.detected3 ~failed:acct.s3_failed
          ~quarantined:acct.s3_failed_groups
          ~budget_left:(Clock.remaining dl3) ()
    end
  done;
  (* Final faults: prove undetectable through the relaxed combinational
     model where possible, otherwise target individually with a larger
     budget (the paper's "additional time"). *)
  let dl_fin = Budget.deadline budget Budget.Finals in
  let finals = alive_ids st.alive in
  (* A final target's models are built for it and dropped after it. A
     memo over consecutive targets with equal spans would keep every
     frame count's model live at once (1 + 2 + 4 + 8 frames by default,
     nearly twice the largest model alone) and raise the peak heap. *)
  let attack_final i fp =
    let dlf =
      Budget.fault_deadline budget Budget.Finals
        cfg.Config.final_fault_seconds
    in
    st.final_circuits <- st.final_circuits + 1;
    match
      plan_sequence ~sink scanned config ~remaining_faults
        ~bounds:fp.Group.spans ~positions ~frames:cfg.Config.final_frames
        ~backtrack:cfg.Config.final_backtrack
        ~should_abort:(fun () -> Clock.expired dlf)
        i
    with
    | None, stats ->
      add_seq_stats ~sink acct stats;
      acct.fin_aborts <- acct.fin_aborts + 1;
      if Clock.expired dl_fin then flag_idx i
    | Some stim, stats ->
      add_seq_stats ~sink acct stats;
      retire_final stim
  in
  List.iter
    (fun i ->
      if st.alive.(i) then begin
        (try
           if Clock.expired dl_fin then begin
             acct.fin_late <- true;
             acct.fin_cancelled <- acct.fin_cancelled + 1;
             flag_idx i
           end
           else begin
             let fault = remaining_faults.(i) in
             match
               timed_atpg sink
                 (Printf.sprintf "podem.final[%d]" i)
                 (fun () ->
                   Podem.run ~backtrack_limit:cfg.Config.final_backtrack
                     ~should_abort:(fun () -> Clock.expired dl_fin)
                     ~scoap view ~faults:[ fault ])
             with
             | Podem.Untestable, stats ->
               add_podem_stats ~sink acct stats;
               st.alive.(i) <- false;
               st.untestable3 <- st.untestable3 + 1;
               untestable_idx3 := i :: !untestable_idx3
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
               if st.alive.(i) && not !engine_poisoned then
                 attack_final i footprints.(i)
             | Podem.Aborted, stats ->
               add_podem_stats ~sink acct stats;
               if Clock.expired dl_fin then
                 acct.p_ab_deadline <- acct.p_ab_deadline + 1
               else acct.p_ab_limit <- acct.p_ab_limit + 1;
               acct.fin_aborts <- acct.fin_aborts + 1;
               attack_final i footprints.(i)
           end
         with e when keep_going ->
           Sink.event sink ~kind:"fault_failed"
             [
               ("phase", Json.String "finals");
               ("fault", Json.Int i);
               ("error", Json.String (Printexc.to_string e));
             ];
           cohort_fail `Finals);
        if keep_going && !engine_poisoned && Array.mem true st.alive then
          cohort_fail `Finals
      end)
    finals;
  let alive_idx = alive_ids st.alive in
  let undetected_idx, aborted_idx =
    List.partition (fun i -> not aborted_flag.(remaining_arr.(i))) alive_idx
  in
  ( {
      detected = st.detected3;
      untestable = st.untestable3;
      undetected = List.length undetected_idx;
      group_circuits = st.group_circuits;
      final_circuits = st.final_circuits;
      seconds = !seconds_before +. (Clock.now () -. t0);
    },
    undetected_idx,
    aborted_idx,
    List.rev !untestable_idx3 )

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
          ck.aborted_flag <- Array.make (Array.length c.Classify.hard) false;
          ck.failed_flag <- Array.make (Array.length c.Classify.hard) false;
          save "classify";
          (c, s))
  in
  let hard_index = classify.Classify.hard in
  let hard_faults =
    Array.map (fun i -> classify.Classify.infos.(i).Classify.fault) hard_index
  in
  let n_hard = Array.length hard_faults in
  let view = View.scan_mode scanned ~constraints:config.Scan.constraints () in
  let scoap = Fst_testability.Scoap.compute view in
  (* Phase 0 (static): ternary constant propagation, the implication graph
     and the fault-independent untestability proofs ({!Fst_sca.Sca}) over
     the scan-mode model. Pure and deterministic, so the checkpointed
     summary and a fresh recomputation always agree. *)
  let sca =
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
            let static_flag = Array.map (Hashtbl.mem tbl) hard_faults in
            let s = { static_flag; sca_stats = t.Fst_sca.Sca.stats } in
            ck.c_sca <- Some s;
            save "sca";
            Some s)
  in
  let static_flag =
    match sca with
    | Some s -> s.static_flag
    | None -> Array.make n_hard false
  in
  (* Phase 2a: combinational ATPG over the hard faults. *)
  let plan =
    match ck.c_plan with
    | Some p -> p
    | None ->
      phase_obs sink "step2-atpg" (fun () ->
          let p =
            plan_step2 ~cfg ~budget ~acct:ck.acct
              ~aborted_flag:ck.aborted_flag ~failed_flag:ck.failed_flag
              ~static_flag view scoap scanned config ~hard_faults
          in
          ck.c_plan <- Some p;
          save "step2-atpg";
          p)
  in
  (* Phase 2b: sequential fault simulation of the realized sequences. *)
  let step2, remaining =
    match ck.c_s2 with
    | Some s -> (s.s2_step2, s.s2_remaining)
    | None ->
      phase_obs sink "step2-fsim" (fun () ->
          let step2, remaining =
            fsim_step2 ~cfg ~budget ~acct:ck.acct
              ~failed_flag:ck.failed_flag ~static_flag scanned ~hard_faults
              ~plan
          in
          ck.c_s2 <- Some { s2_step2 = step2; s2_remaining = remaining };
          save "step2-fsim";
          (step2, remaining))
  in
  let untestable2 = List.map (fun i -> hard_faults.(i)) plan.untestable2 in
  (* Phases 3 and 4: grouped sequential ATPG waves, then final targeting. *)
  let remaining_faults =
    Array.of_list
      (List.map
         (fun i -> classify.Classify.infos.(hard_index.(i)).Classify.fault)
         remaining)
  in
  let step3, undetected_idx, aborted_idx, untestable3_idx =
    match ck.c_fin with
    | Some f -> (f.f_step3, f.undetected_idx, f.aborted_idx, f.untestable3_idx)
    | None ->
      phase_obs sink "step3" (fun () ->
          let step3, undetected_idx, aborted_idx, untestable3_idx =
            run_step3 ~cfg ~budget ~acct:ck.acct
              ~aborted_flag:ck.aborted_flag ~failed_flag:ck.failed_flag
              ~progress:ck.c_s3
              ~save_progress:(fun p ->
                ck.c_s3 <- Some p;
                save "step3-wave")
              scanned config ~classify ~hard_index ~remaining ~view ~scoap
          in
          ck.c_fin <-
            Some
              { f_step3 = step3; undetected_idx; aborted_idx; untestable3_idx };
          save "finished";
          (step3, undetected_idx, aborted_idx, untestable3_idx))
  in
  (* Every hard fault the containment machinery quarantined, across all
     phases: [failed_flag] is indexed by position in the hard set. *)
  let failed_faults =
    let acc = ref [] in
    Array.iteri
      (fun i f -> if ck.failed_flag.(i) then acc := f :: !acc)
      hard_faults;
    List.rev !acc
  in
  let aborts =
    aborts_of ck.acct
      ~aborted_faults:(List.length aborted_idx)
      ~failed_faults:(List.length failed_faults)
  in
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
      aborts.phases;
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
    set_c "flow.failed_faults" (List.length failed_faults);
    match sca with
    | None -> ()
    | Some s ->
      set_c "sca.constants" s.sca_stats.Fst_sca.Sca.constants;
      set_c "sca.implications" s.sca_stats.Fst_sca.Sca.implications;
      set_c "sca.learned" s.sca_stats.Fst_sca.Sca.learned;
      set_c "sca.impossible" s.sca_stats.Fst_sca.Sca.impossible;
      set_c "sca.untestable" s.sca_stats.Fst_sca.Sca.untestable;
      set_c "sca.untestable_static"
        (Array.fold_left (fun a b -> if b then a + 1 else a) 0 static_flag)
  end;
  let untestable_static =
    let acc = ref [] in
    for i = n_hard - 1 downto 0 do
      if static_flag.(i) then acc := hard_faults.(i) :: !acc
    done;
    !acc
  in
  {
    scanned;
    config;
    faults;
    classify;
    classify_seconds;
    step2;
    step3;
    undetected = List.map (fun i -> remaining_faults.(i)) undetected_idx;
    untestable_faults =
      untestable2 @ List.map (fun i -> remaining_faults.(i)) untestable3_idx;
    untestable_static;
    aborted = List.map (fun i -> remaining_faults.(i)) aborted_idx;
    failed = failed_faults;
    aborts;
    atpg = atpg_stats_of ck.acct;
  }
