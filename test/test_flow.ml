open Fst_netlist
open Fst_tpi
open Fst_core
module Q = QCheck

let scan_small ?(gates = 150) ?(ffs = 10) ?(chains = 2) seed =
  let c = Helpers.small_seq_circuit ~gates ~ffs seed in
  Tpi.insert ~options:{ Tpi.default_options with Tpi.chains; justify_depth = 4 } c

let quick_config =
  Config.(
    default |> with_comb_backtrack 100 |> with_seq_backtrack 200
    |> with_final_backtrack 500 |> with_frames [ 1; 2 ]
    |> with_final_frames [ 1; 2; 4 ])

(* The hard faults step 2 left undetected: neither detected nor proven
   untestable, statically or by PODEM. *)
let step2_left r =
  Array.length r.Flow.verdicts
  - Flow.count r Flow.Detected_step2
  - Flow.count r Flow.Untestable_step2
  - Flow.count r Flow.Untestable_static

(* Without a budget or a failure, step 3 settles each fault step 2 left:
   detected, proven untestable or undetected. *)
let step3_settled r =
  Flow.count r Flow.Detected_step3
  + Flow.count r Flow.Untestable_step3
  + Flow.count r Flow.Undetected

(* Multicore dispatch: step 2 is bit-identical for any [jobs]; step 3's
   wave scheduling may only move credit between buckets, never lose
   faults. *)
let test_flow_jobs () =
  let scanned, config = scan_small 11L in
  let r1 = Flow.run ~config:Config.(quick_config |> with_jobs 1) scanned config in
  let r3 = Flow.run ~config:Config.(quick_config |> with_jobs 3) scanned config in
  List.iter
    (fun (what, v) ->
      Alcotest.(check int) what (Flow.count r1 v) (Flow.count r3 v))
    [
      ("step2 detected", Flow.Detected_step2);
      ("step2 untestable", Flow.Untestable_step2);
      ("statically untestable", Flow.Untestable_static);
    ];
  Alcotest.(check int) "step2 vectors" r1.Flow.step2.Flow.vectors
    r3.Flow.step2.Flow.vectors;
  Alcotest.(check int) "step3 partition" (step2_left r3) (step3_settled r3)

let test_flow_bookkeeping () =
  let scanned, config = scan_small 7L in
  let r = Flow.run ~config:quick_config scanned config in
  let hard = Array.length r.Flow.classify.Classify.hard in
  Alcotest.(check int) "one verdict per hard fault" hard
    (Array.length r.Flow.verdicts);
  (* Step-3 buckets partition the step-2 undetected. *)
  Alcotest.(check int) "step3 partition" (step2_left r) (step3_settled r);
  Alcotest.(check int) "affecting accessor" r.Flow.classify.Classify.affecting
    (Flow.affecting r);
  Alcotest.(check int) "total accessor" (Array.length r.Flow.faults)
    (Flow.total_faults r)

(* The headline property: across small random instances, the flow leaves at
   most a tiny residue of the chain-affecting faults undetected. *)
let prop_flow_coverage =
  Q.Test.make ~name:"flow detects almost all hard faults" ~count:5
    (Q.map Int64.of_int (Q.int_bound 100000))
    (fun seed ->
      let scanned, config = scan_small ~gates:200 ~ffs:12 seed in
      let r = Flow.run ~config:quick_config scanned config in
      let hard = Array.length r.Flow.classify.Classify.hard in
      (* Allow a small residue: aborts are possible with the tight budgets
         used here, and a handful of scan-enable-network faults are only
         potentially detectable (see EXPERIMENTS.md). *)
      hard = 0
      || float_of_int (List.length (Flow.faults_with r Flow.Undetected))
         <= Float.max 3.0 (0.15 *. float_of_int hard))

(* Figure 5's shape: the detection curve is monotone and most detections
   happen early. *)
let test_curve_monotone () =
  let scanned, config = scan_small ~gates:250 ~ffs:14 9L in
  let r = Flow.run ~config:quick_config scanned config in
  let curve = r.Flow.step2.Flow.curve in
  Alcotest.(check bool) "curve captured" true (Array.length curve > 0);
  let mono = ref true in
  for i = 1 to Array.length curve - 1 do
    if snd curve.(i) < snd curve.(i - 1) then mono := false;
    if fst curve.(i) <> i then mono := false
  done;
  Alcotest.(check bool) "monotone" true !mono;
  Alcotest.(check int) "final point is the detected count"
    (Flow.count r Flow.Detected_step2)
    (snd curve.(Array.length curve - 1))

let test_truncation_reduces_vectors () =
  let scanned, config = scan_small ~gates:250 ~ffs:14 9L in
  let full = Flow.run ~config:quick_config scanned config in
  let truncated =
    Flow.run
      ~config:Config.(quick_config |> with_truncate_blocks (Some 0.5))
      scanned config
  in
  Alcotest.(check bool) "fewer vectors" true
    (truncated.Flow.step2.Flow.vectors <= full.Flow.step2.Flow.vectors);
  Alcotest.(check bool) "not fewer undetected after step2" true
    (step2_left truncated >= step2_left full)

(* Every fault the flow reports as undetectable really resists a pile of
   random scan-mode test sequences. *)
let prop_untestable_resists_random =
  Q.Test.make ~name:"untestable verdicts resist random sequences" ~count:4
    (Q.map Int64.of_int (Q.int_bound 100000))
    (fun seed ->
      let scanned, config = scan_small ~gates:150 ~ffs:8 seed in
      let r = Flow.run ~config:quick_config scanned config in
      let untestable =
        Flow.faults_with r Flow.Untestable_step2
        @ Flow.faults_with r Flow.Untestable_step3
      in
      Alcotest.(check int)
        "untestable counts match list"
        (Flow.count r Flow.Untestable_step2
        + Flow.count r Flow.Untestable_step3)
        (List.length untestable);
      let rng = Fst_gen.Rng.create (Int64.add seed 77L) in
      let free =
        Array.to_list scanned.Circuit.inputs
        |> List.filter (fun i -> not (List.mem_assoc i config.Scan.constraints))
      in
      let random_block () =
        let ff_values =
          Array.to_list scanned.Circuit.dffs
          |> List.map (fun ff ->
                 (ff, Fst_logic.V3.of_bool (Fst_gen.Rng.bool rng)))
        in
        let pi_values =
          List.map
            (fun pi -> (pi, Fst_logic.V3.of_bool (Fst_gen.Rng.bool rng)))
            free
        in
        Sequences.of_comb_test scanned config ~ff_values ~pi_values
      in
      let stim =
        Sequences.concat (List.init 30 (fun _ -> random_block ()))
      in
      List.for_all
        (fun fault ->
          Fst_fsim.Fsim.Serial.detect scanned ~fault
            ~observe:scanned.Circuit.outputs stim
          = None)
        untestable)

(* --- wall-clock budgets and checkpoint/resume --------------------------- *)

(* The report's counts — step 2/3 detected and untestable, statically
   untestable, aborted, failed, undetected — each equal the number of
   hard faults with the matching verdict. Every hard fault has one
   verdict, so the buckets partition the hard faults. *)
let report_mismatches r =
  Fst_report.Flow_report.(verdict_mismatches (of_result r) r)

let budget_exhausted r =
  Fst_report.Flow_report.(budget_exhausted (of_result r))

let check_report_counts what r =
  Alcotest.(check (list string))
    (what ^ ": report counts = verdict counts")
    [] (report_mismatches r)

(* A near-zero budget must degrade cleanly: no exception, every hard
   fault accounted for exactly once, and the denied ones reported
   aborted. *)
let test_zero_budget_accounting () =
  let scanned, config = scan_small 7L in
  let r =
    Flow.run ~config:quick_config
      ~budget:(Fst_exec.Budget.of_seconds 0.0)
      scanned config
  in
  let hard = Array.length r.Flow.classify.Classify.hard in
  check_report_counts "zero budget" r;
  Alcotest.(check bool) "budget reported exhausted" true (budget_exhausted r);
  Alcotest.(check bool) "something was actually denied" true
    (hard = 0 || Flow.faults_with r Flow.Aborted <> [])

(* An unlimited budget must report no aborts at all in the accounting. *)
let test_unlimited_budget_clean_accounting () =
  let scanned, config = scan_small 7L in
  let r = Flow.run ~config:quick_config scanned config in
  Alcotest.(check bool) "no phase exhausted" false (budget_exhausted r);
  Alcotest.(check (list string)) "aborted list empty" []
    (List.map (Fst_fault.Fault.to_string scanned)
       (Flow.faults_with r Flow.Aborted))

exception Killed

(* Every verdict's count, and the step-2/3 effort. *)
let counts r =
  ( List.map (Flow.count r)
      Flow.
        [
          Detected_step2;
          Detected_step3;
          Untestable_static;
          Untestable_step2;
          Untestable_step3;
          Undetected;
          Aborted;
          Failed;
        ],
    r.Flow.step2.Flow.vectors,
    r.Flow.step3.Flow.group_circuits,
    r.Flow.step3.Flow.final_circuits )

let fault_names scanned fs =
  List.map (Fst_fault.Fault.to_string scanned) fs

(* The whole per-fault outcome of a resumed run against the
   uninterrupted one. *)
let check_verdicts what ~reference r =
  Alcotest.(check bool) (what ^ ": verdicts identical") true
    (r.Flow.verdicts = reference.Flow.verdicts)

let remove_checkpoint path =
  (try Sys.remove path with Sys_error _ -> ());
  try Sys.remove (Checkpoint.prev_path path) with Sys_error _ -> ()

(* Kill-and-resume round trip: interrupt the flow right after each stage's
   checkpoint lands, resume from the file, and require the resumed jobs=1
   run to reproduce the uninterrupted one bit for bit. *)
let test_kill_and_resume_round_trip () =
  let scanned, config = scan_small 7L in
  (* Cripple step 2 so that survivors reach the step-3 waves (otherwise
     there is no "step3-wave" checkpoint to interrupt). *)
  let config_q =
    Config.(
      quick_config |> with_jobs 1 |> with_comb_backtrack 1
      |> with_random_blocks 2)
  in
  let reference = Flow.run ~config:config_q scanned config in
  List.iter
    (fun stage ->
      let path = Filename.temp_file "fst-ckpt" ".bin" in
      let killed = ref false in
      (try
         ignore
           (Flow.run ~config:config_q ~checkpoint:path
              ~on_checkpoint:(fun s ->
                if s = stage && not !killed then begin
                  killed := true;
                  raise Killed
                end)
              scanned config)
       with Killed -> ());
      Alcotest.(check bool) (stage ^ " reached") true !killed;
      let resumed =
        Flow.run ~config:config_q ~checkpoint:path ~resume:true scanned
          config
      in
      remove_checkpoint path;
      Alcotest.(check bool)
        (stage ^ ": counts identical")
        true
        (counts resumed = counts reference);
      check_verdicts stage ~reference resumed;
      Alcotest.(check bool)
        (stage ^ ": atpg counters identical")
        true
        (resumed.Flow.atpg = reference.Flow.atpg);
      Alcotest.(check bool)
        (stage ^ ": abort accounting identical")
        true
        (resumed.Flow.aborts = reference.Flow.aborts);
      Alcotest.(check bool)
        (stage ^ ": curve identical")
        true
        (resumed.Flow.step2.Flow.curve = reference.Flow.step2.Flow.curve))
    [ "classify"; "step2-atpg"; "step2-fsim"; "step3-wave" ]

(* Kill-and-resume with budget-denied faults: the budget is cancelled
   once phase 0 is checkpointed, so every fault it did not prove is
   denied its attempt. A run killed after a later stage and resumed with
   the same (cancelled) budget reports the uninterrupted run's verdicts,
   [Aborted] ones included. *)
let test_kill_and_resume_aborted () =
  let scanned, config = scan_small 7L in
  let config_q = Config.(quick_config |> with_jobs 1) in
  let cancelled_run ?(config_q = config_q) ?checkpoint ?(kill = "") budget =
    Flow.run ~config:config_q ~budget ?checkpoint
      ~on_checkpoint:(fun s ->
        if s = "sca" then Fst_exec.Budget.cancel budget;
        if s = kill then raise Killed)
      scanned config
  in
  let reference = cancelled_run (Fst_exec.Budget.cancellable ()) in
  Alcotest.(check bool) "aborted bucket non-empty" true
    (Flow.faults_with reference Flow.Aborted <> []);
  List.iter
    (fun stage ->
      let path = Filename.temp_file "fst-ckpt" ".bin" in
      let budget = Fst_exec.Budget.cancellable () in
      let killed =
        match cancelled_run ~checkpoint:path ~kill:stage budget with
        | _ -> false
        | exception Killed -> true
      in
      Alcotest.(check bool) (stage ^ " reached") true killed;
      let resumed =
        Flow.run ~config:config_q ~budget ~checkpoint:path ~resume:true
          scanned config
      in
      remove_checkpoint path;
      check_verdicts stage ~reference resumed;
      Alcotest.(check bool)
        (stage ^ ": counts identical")
        true
        (counts resumed = counts reference);
      Alcotest.(check bool)
        (stage ^ ": abort accounting identical")
        true
        (resumed.Flow.aborts = reference.Flow.aborts))
    [ "step2-atpg"; "step2-fsim"; "finished" ];
  (* Resumed without the cancellation, the faults step 2a was denied get
     their full attempts in the later phases; without random blocks and
     with step 3 crippled some survive them, and those stay [Aborted]. *)
  let crippled =
    Config.(
      config_q |> with_random_blocks 0 |> with_seq_backtrack 1
      |> with_final_backtrack 1 |> with_frames [ 1 ]
      |> with_final_frames [ 1 ])
  in
  let path = Filename.temp_file "fst-ckpt" ".bin" in
  (match
     cancelled_run ~config_q:crippled ~checkpoint:path ~kill:"step2-atpg"
       (Fst_exec.Budget.cancellable ())
   with
  | _ -> Alcotest.fail "step2-atpg not reached"
  | exception Killed -> ());
  let resumed =
    Flow.run ~config:crippled ~checkpoint:path ~resume:true scanned config
  in
  remove_checkpoint path;
  Alcotest.(check bool) "later phases detect" true
    (Flow.count resumed Flow.Detected_step2
     + Flow.count resumed Flow.Detected_step3
    > 0);
  Alcotest.(check int) "no survivor undetected" 0
    (List.length (Flow.faults_with resumed Flow.Undetected));
  Alcotest.(check bool) "survivors aborted" true
    (Flow.faults_with resumed Flow.Aborted <> [])

(* A checkpoint written for one circuit must be ignored when resuming on
   another: the run falls back to a fresh flow instead of mixing state. *)
let test_checkpoint_fingerprint_mismatch () =
  let scanned_a, config_a = scan_small 7L in
  let scanned_b, config_b = scan_small 11L in
  let config_q = Config.(quick_config |> with_jobs 1) in
  let path = Filename.temp_file "fst-ckpt" ".bin" in
  ignore (Flow.run ~config:config_q ~checkpoint:path scanned_a config_a);
  let fresh = Flow.run ~config:config_q scanned_b config_b in
  let resumed =
    Flow.run ~config:config_q ~checkpoint:path ~resume:true scanned_b
      config_b
  in
  Sys.remove path;
  Alcotest.(check bool) "mismatched checkpoint ignored" true
    (counts resumed = counts fresh)

(* --- keep-going containment and the chaos harness ----------------------- *)

module Chaos = Fst_exec.Chaos

let keep_going_config = Config.(quick_config |> with_jobs 1 |> with_on_error `Keep_going)

(* Buckets over the whole flow, as name sets. *)
let bucket_names r =
  let names p = fault_names r.Flow.scanned (Flow.faults_with r p) in
  ( names Flow.Detected_step2 @ names Flow.Detected_step3,
    names Flow.Failed,
    names Flow.Aborted )

(* With chaos off, [`Keep_going] at jobs=1 is bit-identical to
   [`Fail_fast]: both policies run the one step-3 schedule and differ
   only in what they do with a failure. The fixture has a step-3 group
   with a member that an earlier target's sequence detects, so
   intra-group dropping is exercised; the per-fault deadlines are lifted
   so that no deadline can make the runs differ. *)
let test_keep_going_chaos_off_identical () =
  let scanned, config = scan_small ~chains:3 9L in
  let cfg =
    Config.(
      quick_config |> with_jobs 1 |> with_comb_backtrack 0
      |> with_random_blocks 1
      |> with_seq_fault_seconds 3600.0
      |> with_final_fault_seconds 3600.0)
  in
  let ff = Flow.run ~config:cfg scanned config in
  let kg =
    Flow.run ~config:(Config.with_on_error `Keep_going cfg) scanned config
  in
  Alcotest.(check bool) "step 3 detects" true
    (Flow.count ff Flow.Detected_step3 > 0);
  Alcotest.(check bool) "counts identical" true (counts kg = counts ff);
  Alcotest.(check bool) "atpg counters identical" true
    (kg.Flow.atpg = ff.Flow.atpg);
  Alcotest.(check bool) "abort accounting identical" true
    (kg.Flow.aborts = ff.Flow.aborts);
  check_verdicts "keep-going" ~reference:ff kg;
  Alcotest.(check (list string)) "no failed bucket" []
    (fault_names scanned (Flow.faults_with kg Flow.Failed))

(* Under [`Fail_fast] a failing step-3 task surfaces its own exception,
   whatever the wave width. *)
let test_fail_fast_raises_task_exception () =
  let scanned, config = scan_small 7L in
  List.iter
    (fun jobs ->
      let cfg =
        Config.(
          quick_config |> with_jobs jobs |> with_comb_backtrack 1
          |> with_random_blocks 2)
      in
      Chaos.install
        [ { Chaos.site = Chaos.Pool_task; at = 0; action = Chaos.Raise } ];
      match
        Fun.protect ~finally:Chaos.clear (fun () ->
            Flow.run ~config:cfg scanned config)
      with
      | _ -> Alcotest.failf "jobs=%d: the flow did not fail" jobs
      | exception Chaos.Injected _ -> ())
    [ 1; 2 ]

(* QCheck generator for chaos plans, with free shrinking to a minimal
   failing injection set via the list shrinker. *)
let plan_arb =
  let open Q.Gen in
  let inj =
    oneofl [ Chaos.Pool_task; Chaos.Engine; Chaos.Ckpt_save; Chaos.Ckpt_load ]
    >>= fun site ->
    int_bound 40 >>= fun at ->
    frequency
      [
        (6, return Chaos.Raise);
        (2, return (Chaos.Delay 0.001));
        (2, return Chaos.Cancel);
      ]
    >>= fun action -> return { Chaos.site; at; action }
  in
  Q.make
    ~print:(fun p -> "[" ^ Chaos.pp_plan p ^ "]")
    ~shrink:Q.Shrink.list
    (Q.Gen.list_size (Q.Gen.int_bound 10) inj)

let chaos_reference =
  lazy
    (let scanned, config = scan_small 7L in
     (scanned, config, Flow.run ~config:keep_going_config scanned config))

(* The headline robustness properties: under any injection plan with
   [`Keep_going], (a) every hard fault is accounted for exactly once,
   and (b) the injected run agrees with the clean run wherever it did
   not fail — its detections are a subset of the clean ones, and every
   clean detection it misses is explained by the failed/aborted
   buckets. *)
let prop_chaos_invariant_and_agreement =
  Q.Test.make ~name:"chaos keep-going: partition invariant and agreement"
    ~count:25 plan_arb
    (fun plan ->
      let scanned, config, clean = Lazy.force chaos_reference in
      let r =
        Chaos.install plan;
        Fun.protect ~finally:Chaos.clear (fun () ->
            Flow.run ~config:keep_going_config scanned config)
      in
      let detected, failed, aborted = bucket_names r in
      let clean_detected, _, _ = bucket_names clean in
      report_mismatches r = []
      && List.for_all (fun nm -> List.mem nm clean_detected) detected
      && List.for_all
           (fun nm ->
             List.mem nm detected || List.mem nm failed
             || List.mem nm aborted)
           clean_detected)

(* Kill-and-resume with a corrupted checkpoint: whatever damage hits the
   primary file (truncation, bit flips, a stale fingerprint), the .prev
   last-good rotation brings the resumed jobs=1 run back bit-identical
   to the uninterrupted one. *)
let test_corrupt_checkpoint_resume () =
  let scanned, config = scan_small 7L in
  let config_q =
    Config.(
      quick_config |> with_jobs 1 |> with_comb_backtrack 1
      |> with_random_blocks 2)
  in
  let reference = Flow.run ~config:config_q scanned config in
  let corrupt_truncate path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic (n / 2) in
    close_in ic;
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  let corrupt_flip path =
    let ic = open_in_bin path in
    let s = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
    close_in ic;
    let k = Bytes.length s - 2 in
    Bytes.set s k (Char.chr (Char.code (Bytes.get s k) lxor 0x55));
    let oc = open_out_bin path in
    output_string oc (Bytes.to_string s);
    close_out oc
  in
  let corrupt_fingerprint path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let nl = String.index s '\n' in
    let header = String.sub s 0 nl in
    let rest = String.sub s nl (String.length s - nl) in
    let header' =
      match String.split_on_char ' ' header with
      | [ m; v; _fp; sum ] -> String.concat " " [ m; v; "stale"; sum ]
      | _ -> Alcotest.fail "unexpected checkpoint header"
    in
    let oc = open_out_bin path in
    output_string oc (header' ^ rest);
    close_out oc
  in
  List.iter
    (fun (what, corrupt) ->
      let path = Filename.temp_file "fst-ckpt" ".bin" in
      let killed = ref false in
      (try
         ignore
           (Flow.run ~config:config_q ~checkpoint:path
              ~on_checkpoint:(fun s ->
                if s = "step3-wave" && not !killed then begin
                  killed := true;
                  raise Killed
                end)
              scanned config)
       with Killed -> ());
      Alcotest.(check bool) (what ^ ": killed mid-step3") true !killed;
      Alcotest.(check bool)
        (what ^ ": .prev rotation exists")
        true
        (Sys.file_exists (Checkpoint.prev_path path));
      corrupt path;
      let recovered = ref false in
      let resumed =
        Flow.run ~config:config_q ~checkpoint:path ~resume:true
          ~on_resume:(fun o -> recovered := o = `Loaded Checkpoint.Recovered)
          scanned config
      in
      remove_checkpoint path;
      Alcotest.(check bool) (what ^ ": recovered from .prev") true !recovered;
      Alcotest.(check bool)
        (what ^ ": counts identical")
        true
        (counts resumed = counts reference);
      check_verdicts what ~reference resumed)
    [
      ("truncate", corrupt_truncate);
      ("bit-flip", corrupt_flip);
      ("stale-fingerprint", corrupt_fingerprint);
    ]

(* Chaos + kill + corrupt + resume: the persisted injection counters make
   the interrupted-and-resumed chaos run replay the exact injection
   sequence, so it stays bit-identical to the uninterrupted injected
   run. *)
let test_chaos_kill_and_resume_deterministic () =
  let scanned, config = scan_small 7L in
  let config_q =
    Config.(
      keep_going_config |> with_comb_backtrack 1 |> with_random_blocks 2)
  in
  let plan = Chaos.plan_of_seed ~p:0.01 ~span:300 1234 in
  let run_with_chaos f =
    Chaos.install plan;
    Fun.protect ~finally:Chaos.clear f
  in
  let reference = run_with_chaos (fun () -> Flow.run ~config:config_q scanned config) in
  let path = Filename.temp_file "fst-ckpt" ".bin" in
  let killed = ref false in
  (try
     run_with_chaos (fun () ->
         ignore
           (Flow.run ~config:config_q ~checkpoint:path
              ~on_checkpoint:(fun s ->
                if s = "step3-wave" && not !killed then begin
                  killed := true;
                  raise Killed
                end)
              scanned config))
   with Killed -> ());
  Alcotest.(check bool) "killed mid-step3" true !killed;
  (* Damage the primary on top of the kill: recovery restores the .prev
     snapshot's injection counters and the replayed segment consumes the
     same sequence numbers the first attempt did. *)
  (let ic = open_in_bin path in
   let n = in_channel_length ic in
   let s = really_input_string ic (max 1 (n / 2)) in
   close_in ic;
   let oc = open_out_bin path in
   output_string oc s;
   close_out oc);
  let resumed =
    run_with_chaos (fun () ->
        Flow.run ~config:config_q ~checkpoint:path ~resume:true scanned
          config)
  in
  remove_checkpoint path;
  check_report_counts "resumed" resumed;
  Alcotest.(check bool) "counts identical" true
    (counts resumed = counts reference);
  check_verdicts "chaos" ~reference resumed

(* A step-3 wave whose task fails for good quarantines the pending cohort
   and ends the waves. A run killed at that wave's checkpoint and resumed
   under the same plan reports the uninterrupted run's verdicts. *)
let test_poisoned_wave_resume () =
  let scanned, config = scan_small 7L in
  let cfg =
    Config.(
      keep_going_config |> with_comb_backtrack 1 |> with_random_blocks 2)
  in
  (* The first step-3 task raises on all three of its attempts. *)
  let plan =
    List.init 3 (fun a ->
        { Chaos.site = Chaos.Pool_task; at = a; action = Chaos.Raise })
  in
  let run_with_chaos f =
    Chaos.install plan;
    Fun.protect ~finally:Chaos.clear f
  in
  let waves = ref 0 in
  let reference =
    run_with_chaos (fun () ->
        Flow.run ~config:cfg
          ~on_checkpoint:(fun s -> if s = "step3-wave" then incr waves)
          scanned config)
  in
  Alcotest.(check bool) "a step-3 cohort failed" true
    (List.exists
       (fun p -> p.Flow.phase = "step3" && p.Flow.failed > 0)
       reference.Flow.aborts);
  let path = Filename.temp_file "fst-ckpt" ".bin" in
  let seen = ref 0 in
  (try
     run_with_chaos (fun () ->
         ignore
           (Flow.run ~config:cfg ~checkpoint:path
              ~on_checkpoint:(fun s ->
                if s = "step3-wave" then begin
                  incr seen;
                  if !seen = !waves then raise Killed
                end)
              scanned config))
   with Killed -> ());
  Alcotest.(check int) "killed at the last wave" !waves !seen;
  let resumed =
    run_with_chaos (fun () ->
        Flow.run ~config:cfg ~checkpoint:path ~resume:true scanned config)
  in
  remove_checkpoint path;
  check_verdicts "poisoned wave" ~reference resumed;
  Alcotest.(check bool) "counts identical" true
    (counts resumed = counts reference);
  Alcotest.(check bool) "abort accounting identical" true
    (resumed.Flow.aborts = reference.Flow.aborts)

(* --- step-2 windows ------------------------------------------------------ *)

module Fsim = Fst_fsim.Fsim
module Sink = Fst_obs.Sink

(* A random step-2 workload: up to 100 faults of a small sequential
   circuit and [nb] random stimulus blocks of 2 to 6 cycles, so the
   lanes of a packed window end at different cycles. *)
let window_workload seed nb =
  let c = Helpers.small_seq_circuit ~gates:60 ~ffs:6 seed in
  let rng = Fst_gen.Rng.create (Int64.add seed 13L) in
  let universe = Fst_fault.Fault.universe c in
  let faults =
    Array.init (min 100 (Array.length universe)) (fun _ ->
        Fst_gen.Rng.pick rng universe)
  in
  let block () =
    Array.init
      (2 + Fst_gen.Rng.int rng 5)
      (fun _ ->
        Array.to_list c.Circuit.inputs
        |> List.map (fun pi ->
               ( pi,
                 match Fst_gen.Rng.int rng 4 with
                 | 0 -> Fst_logic.V3.X
                 | 1 -> Fst_logic.V3.Zero
                 | _ -> Fst_logic.V3.One )))
  in
  (c, faults, Array.init nb (fun _ -> block ()))

let unlimited () = infinity

(* The reference: one serial dropping pass over every block. *)
let serial_outcome c faults blocks =
  Fsim.Serial.detect_dropping c ~faults ~observe:c.Circuit.outputs
    ~stimuli:(Array.to_list blocks)

(* Figure 5 from per-fault outcomes: after [i] blocks, the faults whose
   detecting block is below [i]. *)
let reference_curve nb outcome =
  Array.init (nb + 1) (fun i ->
      ( i,
        Array.fold_left
          (fun a o -> match o with Some (b, _) when b < i -> a + 1 | _ -> a)
          0 outcome ))

(* Windows of 62 blocks give the per-fault (block, cycle) and the curve
   of one serial pass over all blocks, for block counts around the
   window width and for every [jobs]. *)
let prop_windows_match_serial =
  Q.Test.make ~name:"step-2 windows agree with one serial dropping pass"
    ~count:6
    (Q.map Int64.of_int (Q.int_bound 100000))
    (fun seed ->
      List.for_all
        (fun nb ->
          let c, faults, blocks = window_workload seed nb in
          let want = serial_outcome c faults blocks in
          List.for_all
            (fun jobs ->
              let w =
                Flow.fsim_windows ~sink:Sink.null ~jobs ~keep_going:false
                  ~budget_left:unlimited ~failed_before:0 c ~faults blocks
              in
              w.Flow.outcome = want
              && w.Flow.curve = reference_curve nb want
              && (not w.Flow.late) && w.Flow.failed = [||])
            [ 1; 2 ])
        [ 1; 61; 62; 63; 125 ])

(* What the first window alone detects: the serial outcome cut at
   [blocks] blocks. *)
let cut blocks outcome =
  Array.map
    (function Some (b, _) as o when b < blocks -> o | Some _ | None -> None)
    outcome

(* A budget that runs out after the first window keeps that window's
   detections, simulates nothing further, and reports the phase late. *)
let test_windows_budget_after_first () =
  let c, faults, blocks = window_workload 5L 125 in
  let polls = ref 0 in
  let budget_left () =
    incr polls;
    if !polls = 1 then 1.0 else -1.0
  in
  let w = Flow.fsim_windows ~sink:Sink.null ~jobs:1 ~keep_going:false ~budget_left
      ~failed_before:0 c ~faults blocks in
  let first = cut Fsim.Engine.max_group (serial_outcome c faults blocks) in
  Alcotest.(check int) "polled before windows 1 and 2" 2 !polls;
  Alcotest.(check bool) "late" true w.Flow.late;
  Alcotest.(check bool) "first window's detections kept" true
    (w.Flow.outcome = first);
  Alcotest.(check bool) "something was detected" true
    (Array.exists Option.is_some first)

(* A chaos [Raise] on every attempt of window [k]'s engine call fails
   that window for good: exactly the faults still pending at window [k]
   are quarantined, and the earlier windows' detections stay. *)
let test_windows_chaos_contained () =
  let c, faults, blocks = window_workload 5L 125 in
  let want = serial_outcome c faults blocks in
  List.iter
    (fun k ->
      (* One engine hit per window, three attempts under [Retry]. *)
      Chaos.install
        (List.init 3 (fun a ->
             { Chaos.site = Chaos.Engine; at = k + a; action = Chaos.Raise }));
      let w =
        Fun.protect ~finally:Chaos.clear (fun () ->
            Flow.fsim_windows ~sink:Sink.null ~jobs:1 ~keep_going:true
              ~budget_left:unlimited ~failed_before:0 c ~faults blocks)
      in
      let kept = cut (k * Fsim.Engine.max_group) want in
      let pending =
        Array.of_list
          (List.filter
             (fun i -> kept.(i) = None)
             (List.init (Array.length faults) Fun.id))
      in
      Alcotest.(check bool)
        (Printf.sprintf "window %d: earlier detections kept" k)
        true (w.Flow.outcome = kept);
      Alcotest.(check (array int))
        (Printf.sprintf "window %d: pending faults failed" k)
        pending w.Flow.failed;
      Alcotest.(check bool) "not late" false w.Flow.late)
    [ 0; 1; 2 ]

(* [Flow.run] lowers a higher GC space overhead to 80 and keeps a lower
   one; the suite's own setting is restored afterwards. *)
let test_run_lowers_space_overhead () =
  let scanned, config = scan_small ~gates:60 ~ffs:4 3L in
  let saved = Gc.get () in
  let after o =
    Gc.set { (Gc.get ()) with Gc.space_overhead = o };
    ignore (Flow.run ~config:quick_config scanned config);
    (Gc.get ()).Gc.space_overhead
  in
  Fun.protect
    ~finally:(fun () ->
      Gc.set { (Gc.get ()) with Gc.space_overhead = saved.Gc.space_overhead })
    (fun () ->
      Alcotest.(check int) "120 lowered" 80 (after 120);
      Alcotest.(check int) "50 kept" 50 (after 50))

let suite =
  [
    Alcotest.test_case "flow bookkeeping" `Quick test_flow_bookkeeping;
    Alcotest.test_case "multicore jobs invariants" `Quick test_flow_jobs;
    Helpers.qcheck prop_flow_coverage;
    Alcotest.test_case "figure-5 curve monotone" `Quick test_curve_monotone;
    Alcotest.test_case "truncation reduces vectors" `Quick test_truncation_reduces_vectors;
    Helpers.qcheck prop_untestable_resists_random;
    Alcotest.test_case "near-zero budget degrades cleanly" `Quick
      test_zero_budget_accounting;
    Alcotest.test_case "unlimited budget reports no aborts" `Quick
      test_unlimited_budget_clean_accounting;
    Alcotest.test_case "kill-and-resume round trip" `Quick
      test_kill_and_resume_round_trip;
    Alcotest.test_case "checkpoint fingerprint mismatch ignored" `Quick
      test_checkpoint_fingerprint_mismatch;
    Alcotest.test_case "keep-going without chaos is bit-identical" `Quick
      test_keep_going_chaos_off_identical;
    Alcotest.test_case "fail-fast step 3 raises the task's exception" `Quick
      test_fail_fast_raises_task_exception;
    Helpers.qcheck prop_chaos_invariant_and_agreement;
    Alcotest.test_case "corrupt-checkpoint resume recovers via .prev" `Quick
      test_corrupt_checkpoint_resume;
    Alcotest.test_case "chaos kill/corrupt/resume is deterministic" `Quick
      test_chaos_kill_and_resume_deterministic;
    Helpers.qcheck prop_windows_match_serial;
    Alcotest.test_case "step-2 budget trips after the first window" `Quick
      test_windows_budget_after_first;
    Alcotest.test_case "step-2 failed window quarantines its pending cohort"
      `Quick test_windows_chaos_contained;
    Alcotest.test_case "run lowers the GC space overhead" `Quick
      test_run_lowers_space_overhead;
    Alcotest.test_case "kill-and-resume keeps budget-aborted verdicts" `Quick
      test_kill_and_resume_aborted;
    Alcotest.test_case "resume after a poisoned step-3 wave" `Quick
      test_poisoned_wave_resume;
  ]
