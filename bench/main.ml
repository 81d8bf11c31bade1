(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (DATE'98, "Functional Scan Chain Testing") on the synthetic
   ISCAS'89-like suite, plus the ablations listed in DESIGN.md. Speed
   claims are measured with perfbench/, not here.

   Usage:  main.exe [table1|table2|table3|fig5|ablate-alt|ablate-dist|
                     ablate-trunc|ablate-order|ablate-compact|ablate-rtpg|
                     coverage|all]
   The suite size is controlled by FST_SCALE (default 0.10; 1.0 =
   published circuit sizes). *)

open Fst_netlist
open Fst_tpi
open Fst_core
module Table = Fst_report.Table

type prepared = {
  entry : Fst_gen.Suite.entry;
  before : Circuit.t;
  scanned : Circuit.t;
  config : Scan.config;
}

type completed = { prep : prepared; flow : Flow.result }

let scale = Fst_gen.Suite.scale_from_env ()
let flow_config = Config.(default |> with_dist_floor_scale scale)

let prepare (entry : Fst_gen.Suite.entry) =
  let before = Fst_gen.Gen.generate entry.Fst_gen.Suite.profile in
  match Tpi.insert_checked ~chains:entry.Fst_gen.Suite.chains before with
  | Ok (scanned, config) -> { entry; before; scanned; config }
  | Error e ->
    failwith
      (Printf.sprintf "%s: scan insertion failed: %s"
         entry.Fst_gen.Suite.profile.Fst_gen.Gen.name
         (Tpi.insert_error_message e))

let prepared_suite = lazy (List.map prepare (Fst_gen.Suite.suite ~scale ()))

let completed_suite =
  lazy
    (List.map
       (fun prep ->
         let name = prep.entry.Fst_gen.Suite.profile.Fst_gen.Gen.name in
         Printf.eprintf "[flow] %s...\n%!" name;
         let flow = Flow.run ~config:flow_config prep.scanned prep.config in
         { prep; flow })
       (Lazy.force prepared_suite))

(* Every suite circuit's collapsed faults classified, as [Flow.run]
   classifies them, without running the flow: all Tables 1 and 2 need. *)
type classified = {
  cprep : prepared;
  faults : Fst_fault.Fault.t array;
  classify : Classify.t;
  classify_seconds : float;
}

let classified_suite =
  lazy
    (List.map
       (fun prep ->
         let faults =
           Fst_fault.Fault.(collapse prep.scanned (universe prep.scanned))
         in
         let t0 = Fst_exec.Clock.now () in
         let classify =
           Classify.run ~jobs:flow_config.Config.jobs prep.scanned prep.config
             faults
         in
         {
           cprep = prep;
           faults;
           classify;
           classify_seconds = Fst_exec.Clock.now () -. t0;
         })
       (Lazy.force prepared_suite))

let largest () =
  let all = Lazy.force completed_suite in
  List.fold_left
    (fun best c ->
      if Circuit.gate_count c.prep.before > Circuit.gate_count best.prep.before
      then c
      else best)
    (List.hd all) all

(* A flow's six Table 3 counts, from its verdicts: step 2 detected,
   untestable and left undetected (the hard faults it neither detected
   nor proved untestable, statically or by PODEM), then step 3 detected,
   untestable and undetected. *)
let table3_counts flow =
  let count = Flow.count flow in
  let d2 = count Flow.Detected_step2 and u2 = count Flow.Untestable_step2 in
  [|
    d2;
    u2;
    Array.length flow.Flow.verdicts - d2 - u2 - count Flow.Untestable_static;
    count Flow.Detected_step3;
    count Flow.Untestable_step3;
    count Flow.Undetected;
  |]

(* ------------------------------------------------------------------ *)
(* Table 1: the test suite.                                            *)
(* ------------------------------------------------------------------ *)

let table1 () =
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Table 1: Test suite (scale %.2f; faults counted after TPI)"
           scale)
      [
        ("name", Table.Left);
        ("#gates", Table.Right);
        ("#FFs", Table.Right);
        ("#faults", Table.Right);
        ("#chains", Table.Right);
        ("#test points", Table.Right);
        ("#mux segs", Table.Right);
      ]
  in
  let tg = ref 0 and tf = ref 0 and tfl = ref 0 and tc = ref 0 in
  List.iter
    (fun { cprep = prep; faults; _ } ->
      let faults = Array.length faults in
      tg := !tg + Circuit.gate_count prep.before;
      tf := !tf + Circuit.dff_count prep.before;
      tfl := !tfl + faults;
      tc := !tc + Array.length prep.config.Scan.chains;
      Table.row t
        [
          prep.entry.Fst_gen.Suite.profile.Fst_gen.Gen.name;
          Table.cell_int (Circuit.gate_count prep.before);
          Table.cell_int (Circuit.dff_count prep.before);
          Table.cell_int faults;
          Table.cell_int (Array.length prep.config.Scan.chains);
          Table.cell_int prep.config.Scan.test_points;
          Table.cell_int prep.config.Scan.mux_segments;
        ])
    (Lazy.force classified_suite);
  Table.rule t;
  Table.row t
    [
      "total";
      Table.cell_int !tg;
      Table.cell_int !tf;
      Table.cell_int !tfl;
      Table.cell_int !tc;
      "";
      "";
    ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Table 2: finding easy and hard faults.                              *)
(* ------------------------------------------------------------------ *)

let table2 () =
  let t =
    Table.create
      ~title:
        "Table 2: Faults affecting the scan chain (easy = category 1, hard = category 2)"
      [
        ("name", Table.Left);
        ("#easy (%)", Table.Right);
        ("#hard (%)", Table.Right);
        ("CPU", Table.Right);
      ]
  in
  let te = ref 0 and th = ref 0 and tot = ref 0 and secs = ref 0.0 in
  List.iter
    (fun { cprep = prep; faults; classify; classify_seconds } ->
      let total = Array.length faults in
      let easy = Array.length classify.Classify.easy in
      let hard = Array.length classify.Classify.hard in
      te := !te + easy;
      th := !th + hard;
      tot := !tot + total;
      secs := !secs +. classify_seconds;
      Table.row t
        [
          prep.entry.Fst_gen.Suite.profile.Fst_gen.Gen.name;
          Table.cell_int_pct easy ~of_:total;
          Table.cell_int_pct hard ~of_:total;
          Table.cell_seconds classify_seconds;
        ])
    (Lazy.force classified_suite);
  Table.rule t;
  Table.row t
    [
      "total";
      Table.cell_int_pct !te ~of_:!tot;
      Table.cell_int_pct !th ~of_:!tot;
      Table.cell_seconds !secs;
    ];
  Table.print t;
  Printf.printf
    "\n%.1f%% of all faults affect the scan chain; %.1f%% may escape the alternating sequence.\n"
    (100.0 *. float_of_int (!te + !th) /. float_of_int !tot)
    (100.0 *. float_of_int !th /. float_of_int !tot)

(* ------------------------------------------------------------------ *)
(* Table 3: detecting the hard faults.                                 *)
(* ------------------------------------------------------------------ *)

let table3 () =
  let t =
    Table.create
      ~title:
        "Table 3: Detecting the hard faults (comb ATPG + seq fault sim, then sequential ATPG)"
      [
        ("name", Table.Left);
        ("s2 #det", Table.Right);
        ("s2 #unt", Table.Right);
        ("s2 #und", Table.Right);
        ("s2 CPU", Table.Right);
        ("#circ", Table.Right);
        ("s3 #det", Table.Right);
        ("s3 #unt", Table.Right);
        ("s3 #und", Table.Right);
        ("s3 CPU", Table.Right);
      ]
  in
  let sums = Array.make 6 0 in
  let cpu2 = ref 0.0 and cpu3 = ref 0.0 in
  let tot_faults = ref 0 and tot_affect = ref 0 in
  List.iter
    (fun { prep; flow } ->
      let s2 = flow.Flow.step2 and s3 = flow.Flow.step3 in
      let n = table3_counts flow in
      Array.iteri (fun k v -> sums.(k) <- sums.(k) + v) n;
      cpu2 := !cpu2 +. s2.Flow.atpg_seconds +. s2.Flow.fsim_seconds;
      cpu3 := !cpu3 +. s3.Flow.seconds;
      tot_faults := !tot_faults + Flow.total_faults flow;
      tot_affect := !tot_affect + Flow.affecting flow;
      Table.row t
        [
          prep.entry.Fst_gen.Suite.profile.Fst_gen.Gen.name;
          Table.cell_int n.(0);
          Table.cell_int n.(1);
          Table.cell_int n.(2);
          Table.cell_seconds (s2.Flow.atpg_seconds +. s2.Flow.fsim_seconds);
          Printf.sprintf "%d+%d" s3.Flow.group_circuits s3.Flow.final_circuits;
          Table.cell_int n.(3);
          Table.cell_int n.(4);
          Table.cell_int n.(5);
          Table.cell_seconds s3.Flow.seconds;
        ])
    (Lazy.force completed_suite);
  Table.rule t;
  Table.row t
    [
      "total";
      Table.cell_int sums.(0);
      Table.cell_int sums.(1);
      Table.cell_int sums.(2);
      Table.cell_seconds !cpu2;
      "";
      Table.cell_int sums.(3);
      Table.cell_int sums.(4);
      Table.cell_int sums.(5);
      Table.cell_seconds !cpu3;
    ];
  Table.print t;
  let undet = sums.(5) in
  Printf.printf
    "\nAfter step 2 the undetected faults are %d = %.3f%% of all faults (%.3f%% of chain-affecting).\n"
    sums.(2)
    (100.0 *. float_of_int sums.(2) /. float_of_int !tot_faults)
    (100.0 *. float_of_int sums.(2) /. float_of_int !tot_affect);
  Printf.printf
    "After sequential ATPG the undetected faults are %d = %.3f%% of all faults (%.3f%% of chain-affecting).\n"
    undet
    (100.0 *. float_of_int undet /. float_of_int !tot_faults)
    (100.0 *. float_of_int undet /. float_of_int !tot_affect);
  Printf.printf
    "(Paper, full-size suite: 0.006%% of all faults, 0.022%% of chain-affecting.)\n"

(* ------------------------------------------------------------------ *)
(* Figure 5: detected faults versus simulated vectors.                 *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  let c = largest () in
  let name = c.prep.entry.Fst_gen.Suite.profile.Fst_gen.Gen.name in
  let curve = c.flow.Flow.step2.Flow.curve in
  let n = Array.length curve in
  if n = 0 then print_endline "fig5: no curve captured"
  else begin
    let t =
      Table.create
        ~title:
          (Printf.sprintf
             "Figure 5: simulated test vectors vs detected faults (%s)" name)
        [ ("#vectors", Table.Right); ("#detected", Table.Right); ("", Table.Left) ]
    in
    let final = snd curve.(n - 1) in
    let points = 20 in
    let bar d = if final = 0 then "" else String.make (d * 40 / max 1 final) '#' in
    for k = 0 to points do
      let i = k * (n - 1) / points in
      let v, d = curve.(i) in
      Table.row t [ Table.cell_int v; Table.cell_int d; bar d ]
    done;
    Table.print t;
    if final > 0 then begin
      let quantile q =
        let i = ref (n - 1) in
        (try
           Array.iteri
             (fun k (_, d) ->
               if d * 100 >= final * q then begin
                 i := k;
                 raise Exit
               end)
             curve
         with Exit -> ());
        !i
      in
      let i50 = quantile 50 and i90 = quantile 90 in
      Printf.printf
        "\nHalf the detections land in the first %d of %d vectors (%.0f%%), 90%% within %d (%.0f%%):\nthe test set can be truncated cheaply (quantified in Ablation C).\n"
        i50 (n - 1)
        (100.0 *. float_of_int i50 /. float_of_int (max 1 (n - 1)))
        i90
        (100.0 *. float_of_int i90 /. float_of_int (max 1 (n - 1)))
    end
  end

(* ------------------------------------------------------------------ *)
(* Ablation A: alternating-only testing versus the full flow.          *)
(* ------------------------------------------------------------------ *)

let ablate_alt () =
  let t =
    Table.create
      ~title:
        "Ablation A: alternating sequence alone vs the full flow (simulated detections among chain-affecting faults)"
      [
        ("name", Table.Left);
        ("affecting", Table.Right);
        ("alt detects", Table.Right);
        ("alt escapes", Table.Right);
        ("flow leaves", Table.Right);
      ]
  in
  let smallest =
    List.sort
      (fun a b ->
        Int.compare
          (Circuit.gate_count a.prep.before)
          (Circuit.gate_count b.prep.before))
      (Lazy.force completed_suite)
    |> List.filteri (fun i _ -> i < 3)
  in
  List.iter
    (fun { prep; flow } ->
      let cls = flow.Flow.classify in
      let affecting_faults =
        Array.append
          (Array.map (fun i -> flow.Flow.faults.(i)) cls.Classify.easy)
          (Array.map (fun i -> flow.Flow.faults.(i)) cls.Classify.hard)
      in
      let stim = Sequences.alternating prep.scanned prep.config ~repeats:3 in
      let out =
        Fst_fsim.Fsim.Engine.detect_all ~jobs:1 prep.scanned
          ~faults:affecting_faults
          ~observe:prep.scanned.Circuit.outputs stim
      in
      let det = Array.fold_left (fun a o -> if o = None then a else a + 1) 0 out in
      Table.row t
        [
          prep.entry.Fst_gen.Suite.profile.Fst_gen.Gen.name;
          Table.cell_int (Array.length affecting_faults);
          Table.cell_int det;
          Table.cell_int (Array.length affecting_faults - det);
          Table.cell_int (List.length (Flow.faults_with flow Flow.Undetected));
        ])
    smallest;
  Table.print t;
  print_endline
    "\nThe alternating sequence alone misses the escaped category-2 faults;\nthe three-step flow reduces the residue to (near) zero."

(* ------------------------------------------------------------------ *)
(* Ablation B: the grouping distance parameters.                       *)
(* ------------------------------------------------------------------ *)

let ablate_dist () =
  let mid = List.nth (Lazy.force prepared_suite) 5 in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Ablation B: distance-parameter sweep on %s (floors scaled by f)"
           mid.entry.Fst_gen.Suite.profile.Fst_gen.Gen.name)
      [
        ("f", Table.Right);
        ("#circuits", Table.Right);
        ("s3 detected", Table.Right);
        ("s3 undetected", Table.Right);
        ("s3 CPU", Table.Right);
      ]
  in
  List.iter
    (fun f ->
      let cfg = Config.(flow_config |> with_dist_floor_scale (f *. scale)) in
      let flow = Flow.run ~config:cfg mid.scanned mid.config in
      Table.row t
        [
          Printf.sprintf "%.2f" f;
          Printf.sprintf "%d+%d" flow.Flow.step3.Flow.group_circuits
            flow.Flow.step3.Flow.final_circuits;
          Table.cell_int (Flow.count flow Flow.Detected_step3);
          Table.cell_int (Flow.count flow Flow.Undetected);
          Table.cell_seconds flow.Flow.step3.Flow.seconds;
        ])
    [ 0.25; 0.5; 1.0; 2.0 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Ablation C: truncating the step-2 test set (Figure 5's point).      *)
(* ------------------------------------------------------------------ *)

let ablate_trunc () =
  let mid = List.nth (Lazy.force prepared_suite) 5 in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Ablation C: step-2 test-set truncation on %s"
           mid.entry.Fst_gen.Suite.profile.Fst_gen.Gen.name)
      [
        ("kept fraction", Table.Right);
        ("vectors", Table.Right);
        ("s2 undetected", Table.Right);
        ("fsim CPU", Table.Right);
      ]
  in
  List.iter
    (fun frac ->
      let cfg =
        Config.(
          flow_config
          |> with_truncate_blocks (if frac >= 1.0 then None else Some frac))
      in
      let flow = Flow.run ~config:cfg mid.scanned mid.config in
      Table.row t
        [
          Printf.sprintf "%.2f" frac;
          Table.cell_int flow.Flow.step2.Flow.vectors;
          Table.cell_int (table3_counts flow).(2);
          Table.cell_seconds flow.Flow.step2.Flow.fsim_seconds;
        ])
    [ 1.0; 0.5; 0.25; 0.1 ];
  Table.print t;
  print_endline
    "\nMost faults are caught by the beginning of the test set (Figure 5), so the\nsimulation cost can be cut with only a small increase in undetected faults."

(* ------------------------------------------------------------------ *)
(* Coverage: the subsequent logic-test phase the chain test enables.   *)
(* ------------------------------------------------------------------ *)

let coverage_table () =
  let t =
    Table.create
      ~title:
        "Two-phase coverage: chain test (this paper) + standard scan test of the logic"
      [
        ("name", Table.Left);
        ("faults", Table.Right);
        ("chain det", Table.Right);
        ("scan det", Table.Right);
        ("untestable", Table.Right);
        ("undetected", Table.Right);
        ("coverage", Table.Right);
        ("testable cov", Table.Right);
      ]
  in
  (* The full-ATPG phase is the expensive classic problem; run it on the
     smaller half of the suite. *)
  let subset =
    List.filter
      (fun c -> Circuit.gate_count c.prep.before < 500)
      (Lazy.force completed_suite)
  in
  List.iter
    (fun { prep; flow } ->
      let already = Flow.chain_detected_faults flow in
      let r = Scan_atpg.run prep.scanned prep.config ~already_detected:already in
      let total = Flow.total_faults flow in
      let chain_detected = List.length already in
      Table.row t
        [
          prep.entry.Fst_gen.Suite.profile.Fst_gen.Gen.name;
          Table.cell_int total;
          Table.cell_int chain_detected;
          Table.cell_int r.Scan_atpg.detected;
          Table.cell_int r.Scan_atpg.untestable;
          Table.cell_int r.Scan_atpg.undetected;
          Table.cell_pct (100.0 *. Scan_atpg.coverage ~chain_detected ~result:r ~total);
          Table.cell_pct
            (100.0 *. Scan_atpg.testable_coverage ~chain_detected ~result:r ~total);
        ])
    subset;
  Table.print t;
  print_endline
    "\nThe chain test makes the load/unload trustworthy; the scan test then covers\nthe functional logic. Chain-only faults (scan-mode logic) can only come from\nthe first phase -- the paper's motivation, end to end."

(* ------------------------------------------------------------------ *)
(* Ablation D: chain ordering (the flexibility the paper leaves to the *)
(* designer).                                                          *)
(* ------------------------------------------------------------------ *)

let ablate_order () =
  let entry = List.nth (Fst_gen.Suite.suite ~scale ()) 5 in
  let before = Fst_gen.Gen.generate entry.Fst_gen.Suite.profile in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Ablation D: chain ordering on %s (functional reuse and fault locations)"
           entry.Fst_gen.Suite.profile.Fst_gen.Gen.name)
      [
        ("ordering", Table.Left);
        ("functional segs", Table.Right);
        ("test points", Table.Right);
        ("affecting faults", Table.Right);
        ("hard faults", Table.Right);
      ]
  in
  List.iter
    (fun (name, ordering) ->
      let scanned, config =
        Tpi.insert
          ~options:
            {
              Tpi.default_options with
              Tpi.chains = entry.Fst_gen.Suite.chains;
              ordering;
            }
          before
      in
      let faults =
        Fst_fault.Fault.collapse scanned (Fst_fault.Fault.universe scanned)
      in
      let cls = Classify.run scanned config faults in
      let functional =
        Array.fold_left
          (fun acc ch ->
            Array.fold_left
              (fun acc (s : Scan.segment) ->
                if s.Scan.via_mux then acc else acc + 1)
              acc ch.Scan.segments)
          0 config.Scan.chains
      in
      Table.row t
        [
          name;
          Table.cell_int functional;
          Table.cell_int config.Scan.test_points;
          Table.cell_int cls.Classify.affecting;
          Table.cell_int (Array.length cls.Classify.hard);
        ])
    [
      ("greedy functional", Tpi.Greedy_functional);
      ("natural", Tpi.Natural);
      ("shuffled(1)", Tpi.Shuffled 1L);
      ("shuffled(2)", Tpi.Shuffled 2L);
    ];
  Table.print t;
  print_endline
    "\nOrdering moves fault locations and trades functional reuse against test\npoints; the paper leaves this freedom to the designer."

(* ------------------------------------------------------------------ *)
(* Ablation E: static compaction of the step-2 test set.               *)
(* ------------------------------------------------------------------ *)

let ablate_compact () =
  let prep = List.nth (Lazy.force prepared_suite) 5 in
  let name = prep.entry.Fst_gen.Suite.profile.Fst_gen.Gen.name in
  (* Rebuild the step-2 style test set: ATPG blocks + random blocks. *)
  let faults =
    Fst_fault.Fault.collapse prep.scanned (Fst_fault.Fault.universe prep.scanned)
  in
  let cls = Classify.run prep.scanned prep.config faults in
  let view =
    View.scan_mode prep.scanned ~constraints:prep.config.Scan.constraints
  in
  let scoap = Fst_testability.Scoap.compute view in
  let blocks = ref [] in
  Array.iter
    (fun i ->
      match
        Fst_atpg.Podem.run ~backtrack_limit:200 ~scoap view
          ~faults:[ faults.(i) ]
      with
      | Fst_atpg.Podem.Test assignment, _ ->
        let ff_values, pi_values =
          List.partition
            (fun (net, _) -> Circuit.is_dff prep.scanned net)
            assignment
        in
        blocks :=
          Sequences.of_comb_test prep.scanned prep.config ~ff_values ~pi_values
          :: !blocks
      | (Fst_atpg.Podem.Untestable | Fst_atpg.Podem.Aborted), _ -> ())
    cls.Classify.hard;
  let blocks = List.rev !blocks in
  let hard_faults = Array.map (fun i -> faults.(i)) cls.Classify.hard in
  let observe = prep.scanned.Circuit.outputs in
  let before_cov =
    Compact.coverage prep.scanned ~faults:hard_faults ~observe ~blocks
  in
  let t0 = Sys.time () in
  let kept, credited =
    Compact.reverse_order prep.scanned ~faults:hard_faults ~observe ~blocks
  in
  let seconds = Sys.time () -. t0 in
  let t =
    Table.create
      ~title:(Printf.sprintf "Ablation E: reverse-order compaction on %s" name)
      [ ("", Table.Left); ("sequences", Table.Right); ("faults detected", Table.Right) ]
  in
  Table.row t
    [ "full step-2 set"; Table.cell_int (List.length blocks);
      Table.cell_int before_cov ];
  Table.row t
    [ "compacted"; Table.cell_int (List.length kept); Table.cell_int credited ];
  Table.print t;
  Printf.printf
    "\nCompaction kept %.0f%% of the sequences with identical coverage (%.2fs).\n"
    (100.0
    *. float_of_int (List.length kept)
    /. float_of_int (max 1 (List.length blocks)))
    seconds

(* ------------------------------------------------------------------ *)
(* Ablation F: uniform vs weighted random tests (the paper's random-   *)
(* vector option for partial scan).                                    *)
(* ------------------------------------------------------------------ *)

let ablate_rtpg () =
  let prep = List.nth (Lazy.force prepared_suite) 5 in
  let name = prep.entry.Fst_gen.Suite.profile.Fst_gen.Gen.name in
  let faults =
    Fst_fault.Fault.collapse prep.scanned (Fst_fault.Fault.universe prep.scanned)
  in
  let cls = Classify.run prep.scanned prep.config faults in
  let hard_faults = Array.map (fun i -> faults.(i)) cls.Classify.hard in
  let view =
    View.scan_mode prep.scanned ~constraints:prep.config.Scan.constraints
  in
  let blocks_of generator n =
    let rng = Fst_gen.Rng.create 0xABCDL in
    List.init n (fun _ ->
        let ff_values, pi_values =
          List.partition
            (fun (net, _) -> Circuit.is_dff prep.scanned net)
            (generator rng view)
        in
        Sequences.of_comb_test prep.scanned prep.config ~ff_values ~pi_values)
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Ablation F: random-only chain testing on %s (%d hard faults)"
           name (Array.length hard_faults))
      [ ("generator", Table.Left); ("blocks", Table.Right); ("hard faults detected", Table.Right) ]
  in
  List.iter
    (fun (gname, gen) ->
      List.iter
        (fun n ->
          let blocks = blocks_of gen n in
          let det =
            Compact.coverage prep.scanned ~faults:hard_faults
              ~observe:prep.scanned.Circuit.outputs ~blocks
          in
          Table.row t [ gname; Table.cell_int n; Table.cell_int det ])
        [ 16; 64 ])
    [ ("uniform", Fst_atpg.Rtpg.uniform); ("weighted", Fst_atpg.Rtpg.weighted) ];
  Table.print t;
  print_endline
    "\nRandom vectors alone (the paper's partial-scan option) reach most but not\nall hard faults; deterministic ATPG closes the gap."

let usage () =
  print_endline
    "usage: main.exe \
     [table1|table2|table3|fig5|ablate-alt|ablate-dist|ablate-trunc|ablate-order|ablate-compact|ablate-rtpg|coverage|all]"

let () =
  let target = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  Printf.printf "functional-scan-chain-testing benchmarks (FST_SCALE=%.2f)\n%!"
    scale;
  match target with
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "table3" -> table3 ()
  | "fig5" -> fig5 ()
  | "ablate-alt" -> ablate_alt ()
  | "ablate-dist" -> ablate_dist ()
  | "ablate-trunc" -> ablate_trunc ()
  | "ablate-order" -> ablate_order ()
  | "ablate-compact" -> ablate_compact ()
  | "ablate-rtpg" -> ablate_rtpg ()
  | "coverage" -> coverage_table ()
  | "all" ->
    table1 ();
    table2 ();
    table3 ();
    fig5 ();
    ablate_alt ();
    ablate_dist ();
    ablate_trunc ();
    ablate_order ();
    ablate_compact ();
    ablate_rtpg ();
    coverage_table ()
  | _ -> usage ()
