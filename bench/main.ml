(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (DATE'98, "Functional Scan Chain Testing") on the synthetic
   ISCAS'89-like suite, plus the ablations listed in DESIGN.md and a set of
   Bechamel micro-benchmarks.

   Usage:  main.exe [table1|table2|table3|fig5|ablate-alt|ablate-dist|
                     ablate-trunc|ablate-order|ablate-compact|ablate-rtpg|
                     coverage|fsim|flow|sca|micro|all]
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
  let scanned, config =
    Tpi.insert
      ~options:{ Tpi.default_options with Tpi.chains = entry.Fst_gen.Suite.chains }
      before
  in
  (match Scan.verify_shift_msg scanned config with
   | Ok () -> ()
   | Error e ->
     failwith
       (Printf.sprintf "%s: scan chain broken after TPI: %s"
          entry.Fst_gen.Suite.profile.Fst_gen.Gen.name e));
  { entry; before; scanned; config }

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

let largest () =
  let all = Lazy.force completed_suite in
  List.fold_left
    (fun best c ->
      if Circuit.gate_count c.prep.before > Circuit.gate_count best.prep.before
      then c
      else best)
    (List.hd all) all

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
    (fun { prep; flow } ->
      let faults = Array.length flow.Flow.faults in
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
    (Lazy.force completed_suite);
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
    (fun { prep; flow } ->
      let total = Array.length flow.Flow.faults in
      let easy = Array.length flow.Flow.classify.Classify.easy in
      let hard = Array.length flow.Flow.classify.Classify.hard in
      te := !te + easy;
      th := !th + hard;
      tot := !tot + total;
      secs := !secs +. flow.Flow.classify_seconds;
      Table.row t
        [
          prep.entry.Fst_gen.Suite.profile.Fst_gen.Gen.name;
          Table.cell_int_pct easy ~of_:total;
          Table.cell_int_pct hard ~of_:total;
          Table.cell_seconds flow.Flow.classify_seconds;
        ])
    (Lazy.force completed_suite);
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
      sums.(0) <- sums.(0) + s2.Flow.detected;
      sums.(1) <- sums.(1) + s2.Flow.untestable;
      sums.(2) <- sums.(2) + s2.Flow.undetected;
      sums.(3) <- sums.(3) + s3.Flow.detected;
      sums.(4) <- sums.(4) + s3.Flow.untestable;
      sums.(5) <- sums.(5) + s3.Flow.undetected;
      cpu2 := !cpu2 +. s2.Flow.atpg_seconds +. s2.Flow.fsim_seconds;
      cpu3 := !cpu3 +. s3.Flow.seconds;
      tot_faults := !tot_faults + Flow.total_faults flow;
      tot_affect := !tot_affect + Flow.affecting flow;
      Table.row t
        [
          prep.entry.Fst_gen.Suite.profile.Fst_gen.Gen.name;
          Table.cell_int s2.Flow.detected;
          Table.cell_int s2.Flow.untestable;
          Table.cell_int s2.Flow.undetected;
          Table.cell_seconds (s2.Flow.atpg_seconds +. s2.Flow.fsim_seconds);
          Printf.sprintf "%d+%d" s3.Flow.group_circuits s3.Flow.final_circuits;
          Table.cell_int s3.Flow.detected;
          Table.cell_int s3.Flow.untestable;
          Table.cell_int s3.Flow.undetected;
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
        Fst_fsim.Fsim.Parallel.detect_all prep.scanned ~faults:affecting_faults
          ~observe:prep.scanned.Circuit.outputs stim
      in
      let det = Array.fold_left (fun a o -> if o = None then a else a + 1) 0 out in
      Table.row t
        [
          prep.entry.Fst_gen.Suite.profile.Fst_gen.Gen.name;
          Table.cell_int (Array.length affecting_faults);
          Table.cell_int det;
          Table.cell_int (Array.length affecting_faults - det);
          Table.cell_int (List.length flow.Flow.undetected);
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
          Table.cell_int flow.Flow.step3.Flow.detected;
          Table.cell_int flow.Flow.step3.Flow.undetected;
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
          Table.cell_int flow.Flow.step2.Flow.undetected;
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
    View.scan_mode prep.scanned ~constraints:prep.config.Scan.constraints ()
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
    View.scan_mode prep.scanned ~constraints:prep.config.Scan.constraints ()
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

(* ------------------------------------------------------------------ *)
(* ------------------------------------------------------------------ *)
(* Fault-simulation engine comparison, recorded as BENCH_fsim.json so  *)
(* the perf trajectory is tracked across PRs. serial/event/parallel    *)
(* are called directly on the SAME one-group fault subset at jobs=1 —  *)
(* so parallel_s <= serial_s is an apples-to-apples invariant — while  *)
(* Fsim.Engine ("auto") runs the full fault set at jobs=1 and jobs=N.  *)
(* [fsim --check] re-measures and fails on a >20% serial/event         *)
(* regression against the committed file or any parallel_s > serial_s. *)
(* ------------------------------------------------------------------ *)

let fsim_jobs () =
  match Sys.getenv_opt "FST_JOBS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> max 1 n
      | None -> failwith (Printf.sprintf "FST_JOBS=%S is not an integer" s))
  | None -> Fst_exec.Pool.default_jobs ()

type fsim_row = {
  fr_name : string;
  fr_faults : int;
  fr_serial_faults : int;
  fr_cycles : int;
  fr_serial_s : float;
  fr_event_s : float;
  fr_parallel_s : float;
  fr_auto1_s : float; (* negative when the Auto columns were skipped *)
  fr_autoj_s : float;
}

(* Serial wall extrapolated from its one-group subset to the full fault
   set, over the jobs=N Auto wall on that full set. *)
let fsim_speedup r =
  if r.fr_autoj_s <= 0.0 then 0.0
  else
    r.fr_serial_s
    *. float_of_int r.fr_faults
    /. float_of_int (max 1 r.fr_serial_faults)
    /. r.fr_autoj_s

(* A step-2-shaped workload: the alternating chain test plus random
   scan-mode blocks, simulated with cross-block dropping. *)
let fsim_workload prep =
  let view =
    View.scan_mode prep.scanned ~constraints:prep.config.Scan.constraints ()
  in
  let rng = Fst_gen.Rng.create 0xBE5CL in
  let random_block () =
    let ff_values, pi_values =
      List.partition
        (fun (net, _) -> Circuit.is_dff prep.scanned net)
        (Fst_atpg.Rtpg.uniform rng view)
    in
    Sequences.of_comb_test prep.scanned prep.config ~ff_values ~pi_values
  in
  Sequences.alternating prep.scanned prep.config ~repeats:2
  :: List.init 8 (fun _ -> random_block ())

let fsim_measure ~jobs ~with_auto =
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let rows =
    List.map
      (fun prep ->
        let name = prep.entry.Fst_gen.Suite.profile.Fst_gen.Gen.name in
        Printf.eprintf "[fsim] %s...\n%!" name;
        let faults =
          Fst_fault.Fault.collapse prep.scanned
            (Fst_fault.Fault.universe prep.scanned)
        in
        let stimuli = fsim_workload prep in
        let cycles =
          List.fold_left (fun a s -> a + Array.length s) 0 stimuli
        in
        let observe = prep.scanned.Circuit.outputs in
        let module F = Fst_fsim.Fsim in
        (* Serial is ~62x the work per fault: time the single-machine
           engine columns on one group's worth of faults so they stay
           affordable at every scale and comparable across engines. *)
        let serial_faults =
          Array.sub faults 0 (min (Array.length faults) F.Parallel.max_group)
        in
        let one (module E : F.ENGINE) =
          wall (fun () ->
              E.detect_dropping prep.scanned ~faults:serial_faults ~observe
                ~stimuli)
        in
        let rs, serial_s = one (module F.Serial) in
        let re, event_s = one (module F.Event) in
        if rs <> re then failwith (name ^ ": event fsim diverged from serial");
        let rp, parallel_s = one (module F.Parallel) in
        if rs <> rp then
          failwith (name ^ ": parallel fsim diverged from serial");
        let auto1_s, autoj_s =
          if not with_auto then (-1.0, -1.0)
          else begin
            let full j =
              wall (fun () ->
                  F.Engine.detect_dropping ~jobs:j prep.scanned ~faults
                    ~observe ~stimuli)
            in
            let r1, auto1_s = full 1 in
            let rn, autoj_s = full jobs in
            if r1 <> rn then
              failwith (name ^ ": multicore fsim diverged from single-core");
            (auto1_s, autoj_s)
          end
        in
        {
          fr_name = name;
          fr_faults = Array.length faults;
          fr_serial_faults = Array.length serial_faults;
          fr_cycles = cycles;
          fr_serial_s = serial_s;
          fr_event_s = event_s;
          fr_parallel_s = parallel_s;
          fr_auto1_s = auto1_s;
          fr_autoj_s = autoj_s;
        })
      (Lazy.force prepared_suite)
  in
  (* The event engine's home turf: the largest circuit with the faults
     whose static cones are shortest, so nearly every cycle is quiescent
     for the faulty machine. Serial still walks the whole circuit each
     cycle; event only touches the cone. *)
  let low_activity =
    let prep =
      List.fold_left
        (fun best p ->
          if Circuit.gate_count p.before > Circuit.gate_count best.before then p
          else best)
        (List.hd (Lazy.force prepared_suite))
        (Lazy.force prepared_suite)
    in
    let name = prep.entry.Fst_gen.Suite.profile.Fst_gen.Gen.name in
    Printf.eprintf "[fsim] low-activity workload on %s...\n%!" name;
    let faults =
      Fst_fault.Fault.collapse prep.scanned
        (Fst_fault.Fault.universe prep.scanned)
    in
    let sizes = Fst_fault.Fault.cone_sizes prep.scanned faults in
    let order = Array.init (Array.length faults) (fun i -> i) in
    Array.sort (fun a b -> Int.compare sizes.(a) sizes.(b)) order;
    let n = min (Array.length faults) Fst_fsim.Fsim.Parallel.max_group in
    let short = Array.map (fun i -> faults.(i)) (Array.sub order 0 n) in
    let max_cone = if n = 0 then 0 else sizes.(order.(n - 1)) in
    let stimuli = fsim_workload prep in
    let observe = prep.scanned.Circuit.outputs in
    let rs, ser =
      wall (fun () ->
          Fst_fsim.Fsim.Serial.detect_dropping prep.scanned ~faults:short
            ~observe ~stimuli)
    in
    let re, ev =
      wall (fun () ->
          Fst_fsim.Fsim.Event.detect_dropping prep.scanned ~faults:short
            ~observe ~stimuli)
    in
    if rs <> re then failwith (name ^ ": event fsim diverged from serial");
    (name, n, max_cone, ser, ev)
  in
  (rows, low_activity)

let fsim_bench () =
  let jobs = fsim_jobs () in
  let rows, low_activity = fsim_measure ~jobs ~with_auto:true in
  let t =
    Table.create
      ~title:
        "Fault-simulation engines (serial/event/parallel on one 62-fault \
         group at jobs=1, auto on the full set)"
      [
        ("name", Table.Left);
        ("#faults", Table.Right);
        ("cycles", Table.Right);
        ("serial", Table.Right);
        ("event", Table.Right);
        ("parallel", Table.Right);
        ("auto j=1", Table.Right);
        (Printf.sprintf "auto j=%d" jobs, Table.Right);
        ("speedup", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.row t
        [
          r.fr_name;
          Table.cell_int r.fr_faults;
          Table.cell_int r.fr_cycles;
          Table.cell_seconds r.fr_serial_s;
          Table.cell_seconds r.fr_event_s;
          Table.cell_seconds r.fr_parallel_s;
          Table.cell_seconds r.fr_auto1_s;
          Table.cell_seconds r.fr_autoj_s;
          Printf.sprintf "%.2fx" (fsim_speedup r);
        ])
    rows;
  Table.print t;
  let la_name, la_n, la_cone, la_ser, la_ev = low_activity in
  Printf.printf
    "low-activity workload (%s, %d short-cone faults, cone <= %d nets): \
     serial %.3fs, event %.3fs (%.2fx)\n"
    la_name la_n la_cone la_ser la_ev
    (la_ser /. Float.max 1e-9 la_ev);
  let oc = open_out "BENCH_fsim.json" in
  Printf.fprintf oc
    "{\n  \"scale\": %.3f,\n  \"jobs\": %d,\n  \"circuits\": ["
    scale jobs;
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "%s\n    { \"name\": %S, \"faults\": %d, \"serial_faults\": %d, \
         \"cycles\": %d, \"serial_s\": %.6f, \"event_s\": %.6f, \
         \"parallel_s\": %.6f, \"auto1_s\": %.6f, \"auto_jobs_s\": %.6f, \
         \"auto_speedup\": %.3f }"
        (if i = 0 then "" else ",")
        r.fr_name r.fr_faults r.fr_serial_faults r.fr_cycles r.fr_serial_s
        r.fr_event_s r.fr_parallel_s r.fr_auto1_s r.fr_autoj_s
        (fsim_speedup r))
    rows;
  Printf.fprintf oc
    "\n  ],\n  \"low_activity\": { \"name\": %S, \"faults\": %d, \
     \"max_cone\": %d, \"serial_s\": %.6f, \"event_s\": %.6f, \
     \"event_speedup\": %.3f }\n}\n"
    la_name la_n la_cone la_ser la_ev
    (la_ser /. Float.max 1e-9 la_ev);
  close_out oc;
  Printf.printf "wrote BENCH_fsim.json (%d circuits, jobs=%d)\n"
    (List.length rows) jobs

(* [fsim --check]: re-measure the per-engine columns (the full-set Auto
   columns are skipped — the gate is about engine regressions, not
   wall-clock on the whole fault set) and fail when bit-parallel is
   slower than serial on the same faults, or when serial/event regressed
   more than 20% against the committed BENCH_fsim.json. The numeric
   comparison only applies when the committed scale and jobs match this
   run's; the parallel-never-slower invariant is checked always, on both
   the fresh and the committed numbers. *)
let fsim_check () =
  let jobs = fsim_jobs () in
  let rows, _ = fsim_measure ~jobs ~with_auto:false in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun r ->
      if r.fr_parallel_s > r.fr_serial_s then
        err "%s: parallel %.6fs > serial %.6fs on the same %d faults"
          r.fr_name r.fr_parallel_s r.fr_serial_s r.fr_serial_faults)
    rows;
  let module J = Fst_obs.Json in
  let fnum = function
    | Some (J.Float f) -> f
    | Some (J.Int i) -> float_of_int i
    | _ -> Float.nan
  in
  (match
     let ic = open_in "BENCH_fsim.json" in
     let s = really_input_string ic (in_channel_length ic) in
     close_in ic;
     J.of_string s
   with
   | exception Sys_error e -> err "committed BENCH_fsim.json unreadable: %s" e
   | exception J.Parse_error e ->
     err "committed BENCH_fsim.json malformed: %s" e
   | doc ->
     let circuits =
       match J.member "circuits" doc with Some (J.List l) -> l | _ -> []
     in
     if circuits = [] then err "committed BENCH_fsim.json has no circuits";
     List.iter
       (fun c ->
         let name =
           match J.member "name" c with Some (J.String s) -> s | _ -> "?"
         in
         let ser = fnum (J.member "serial_s" c)
         and par = fnum (J.member "parallel_s" c) in
         if par > ser then
           err "committed %s: parallel_s %.6f > serial_s %.6f" name par ser)
       circuits;
     let cscale = fnum (J.member "scale" doc) in
     let cjobs = int_of_float (fnum (J.member "jobs" doc)) in
     if Float.abs (cscale -. scale) < 1e-6 && cjobs = jobs then
       List.iter
         (fun r ->
           match
             List.find_opt
               (fun c -> J.member "name" c = Some (J.String r.fr_name))
               circuits
           with
           | None ->
             err "%s: missing from committed BENCH_fsim.json" r.fr_name
           | Some c ->
             (* The >20% comparison goes through Analyze.diff — the same
                relative-threshold verdict machinery `fst analyze
                --baseline` gates on — instead of an ad-hoc check. The
                committed and fresh times become the phases of two
                synthetic runs; 100µs floor keeps degenerate sub-µs
                circuits from producing noise verdicts. *)
             let module A = Fst_obs.Analyze in
             let committed_ser = fnum (J.member "serial_s" c)
             and committed_ev = fnum (J.member "event_s" c) in
             if Float.is_nan committed_ser then
               err "%s: committed serial_s missing" r.fr_name;
             if Float.is_nan committed_ev then
               err "%s: committed event_s missing" r.fr_name;
             if not (Float.is_nan committed_ser || Float.is_nan committed_ev)
             then begin
               let mk ser ev =
                 {
                   A.wall_s = 0.0;
                   phases = [ ("serial", ser); ("event", ev) ];
                   counters = [];
                   gauges = [];
                   histograms = [];
                   domains = [];
                   segs = [];
                   config = J.Null;
                 }
               in
               let entries =
                 A.diff ~threshold:0.20 ~min_s:1e-4
                   (mk committed_ser committed_ev)
                   (mk r.fr_serial_s r.fr_event_s)
               in
               List.iter
                 (fun (e : A.diff_entry) ->
                   err "%s: %s regressed %.6fs -> %.6fs (%+.0f%% > 20%%)"
                     r.fr_name e.A.d_key e.A.d_base e.A.d_cur
                     (e.A.d_delta_frac *. 100.0))
                 (A.regressions entries)
             end)
         rows
     else
       Printf.printf
         "note: committed scale=%.3f jobs=%d vs run scale=%.3f jobs=%d — \
          invariants only, no numeric comparison\n"
         cscale cjobs scale jobs);
  match List.rev !errors with
  | [] ->
    Printf.printf "fsim --check OK (%d circuits, scale=%.3f)\n"
      (List.length rows) scale
  | es ->
    List.iter (fun e -> Printf.eprintf "fsim --check FAIL: %s\n" e) es;
    exit 1

(* ------------------------------------------------------------------ *)
(* Whole-flow benchmark: per-phase wall clock and key counters per      *)
(* circuit, serial vs jobs=N, read off a live metrics sink and written  *)
(* to BENCH_flow.json so the perf trajectory is tracked across PRs.     *)
(* ------------------------------------------------------------------ *)

let flow_bench () =
  let jobs =
    match Sys.getenv_opt "FST_JOBS" with
    | Some s -> (
        match int_of_string_opt s with
        | Some n -> max 1 n
        | None -> failwith (Printf.sprintf "FST_JOBS=%S is not an integer" s))
    | None -> Fst_exec.Pool.default_jobs ()
  in
  let module J = Fst_obs.Json in
  let module M = Fst_obs.Metrics in
  let phases = [ "classify"; "step2-atpg"; "step2-fsim"; "step3" ] in
  (* One instrumented run: a metrics-only sink (no trace buffer, no event
     log), so everything reported here comes off the registry snapshot. *)
  let variant ~jobs prep =
    let metrics = M.create () in
    let sink = Fst_obs.Sink.create ~metrics () in
    let cfg =
      Config.(flow_config |> with_jobs jobs |> with_sink sink)
    in
    let t0 = Unix.gettimeofday () in
    let flow = Flow.run ~config:cfg prep.scanned prep.config in
    let wall = Unix.gettimeofday () -. t0 in
    let gauge name = M.Gauge.value (M.gauge metrics name) in
    let count name = M.Counter.value (M.counter metrics name) in
    let a = flow.Flow.atpg in
    (* busy_frac is reported per *effective* domain slot. Requesting
       jobs=8 on a single-core machine runs every dispatch in-caller
       (Pool.effective_jobs clamps to the hardware core count), so
       domain slots 1..7 never exist; enumerating the requested count
       auto-created their gauges at 0.0 and produced the misleading
       [1,0,...,0] shape this replaces. *)
    let jobs_effective = Fst_exec.Pool.effective_jobs ~jobs max_int in
    let json =
      J.Obj
        [
          ("jobs", J.Int jobs);
          ("jobs_effective", J.Int jobs_effective);
          ("wall_s", J.Float wall);
          ( "phases",
            J.Obj
              (List.map
                 (fun p -> (p, J.Float (gauge ("flow." ^ p ^ ".wall_s"))))
                 phases) );
          (* Canonical registry names, so Analyze.diff lines these up
             against run.json counters without a rename table. *)
          ( "counters",
            J.Obj
              [
                ("atpg.podem.runs", J.Int a.Flow.podem_runs);
                ("atpg.podem.backtracks", J.Int a.Flow.podem_backtracks);
                ("atpg.podem.decisions", J.Int a.Flow.podem_decisions);
                ("atpg.podem.implications", J.Int a.Flow.podem_implications);
                ("atpg.seq.runs", J.Int a.Flow.seq_runs);
                ("atpg.seq.backtracks", J.Int a.Flow.seq_backtracks);
                ("fsim.detect_all.calls", J.Int (count "fsim.detect_all.calls"));
                ("fsim.detect_all.faults", J.Int (count "fsim.detect_all.faults"));
                ("flow.step2.blocks", J.Int (count "flow.step2.blocks"));
              ] );
          ( "busy_frac",
            J.List
              (List.init jobs_effective (fun k ->
                   J.Float
                     (gauge (Printf.sprintf "pool.domain%d.busy_frac" k)))) );
          ( "detected",
            J.Int (flow.Flow.step2.Flow.detected + flow.Flow.step3.Flow.detected)
          );
        ]
    in
    (wall, json)
  in
  let rows =
    List.map
      (fun prep ->
        let name = prep.entry.Fst_gen.Suite.profile.Fst_gen.Gen.name in
        Printf.eprintf "[flow-bench] %s...\n%!" name;
        let serial_wall, serial_json = variant ~jobs:1 prep in
        let multi_wall, multi_json = variant ~jobs prep in
        (name, serial_wall, multi_wall, serial_json, multi_json))
      (Lazy.force prepared_suite)
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Whole-flow wall clock, serial vs jobs=%d" jobs)
      [
        ("name", Table.Left);
        ("serial", Table.Right);
        ("multicore", Table.Right);
        ("speedup", Table.Right);
      ]
  in
  List.iter
    (fun (name, ser, mc, _, _) ->
      Table.row t
        [
          name;
          Table.cell_seconds ser;
          Table.cell_seconds mc;
          Printf.sprintf "%.2fx" (ser /. Float.max 1e-9 mc);
        ])
    rows;
  Table.print t;
  let doc =
    J.Obj
      [
        ("scale", J.Float scale);
        ("jobs", J.Int jobs);
        ( "circuits",
          J.List
            (List.map
               (fun (name, ser, mc, sj, mj) ->
                 J.Obj
                   [
                     ("name", J.String name);
                     ("serial", sj);
                     ("multicore", mj);
                     ("speedup", J.Float (ser /. Float.max 1e-9 mc));
                   ])
               rows) );
      ]
  in
  let oc = open_out "BENCH_flow.json" in
  J.to_channel oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_flow.json (%d circuits, jobs=%d)\n"
    (List.length rows) jobs

(* ------------------------------------------------------------------ *)
(* Static analysis: prune ratio against PODEM-proven untestables, and  *)
(* the backtrack reduction from feeding the implication graph to PODEM *)
(* as pruning hints. Recorded as BENCH_sca.json.                       *)
(* ------------------------------------------------------------------ *)

let sca_bench () =
  let module J = Fst_obs.Json in
  let module Sca = Fst_sca.Sca in
  let backtrack_limit = Config.default.Config.comb_backtrack in
  let rows =
    List.map
      (fun prep ->
        let name = prep.entry.Fst_gen.Suite.profile.Fst_gen.Gen.name in
        Printf.eprintf "[sca-bench] %s...\n%!" name;
        let scanned = prep.scanned and config = prep.config in
        let faults =
          Fst_fault.Fault.collapse scanned (Fst_fault.Fault.universe scanned)
        in
        let cls = Classify.run scanned config faults in
        let hard = Array.map (fun i -> faults.(i)) cls.Classify.hard in
        let view =
          View.scan_mode scanned ~constraints:config.Scan.constraints ()
        in
        let t = Sca.analyze view ~faults:hard in
        let proven = Hashtbl.create 64 in
        List.iter
          (fun (u : Sca.untestable) -> Hashtbl.replace proven u.Sca.fault ())
          t.Sca.untestable;
        let scoap = Fst_testability.Scoap.compute view in
        (* Baseline: one plain PODEM run per hard fault; its Untestable
           verdicts are the denominator of the prune ratio. *)
        let podem_untestable = ref 0 and backtracks_plain = ref 0 in
        Array.iter
          (fun f ->
            let result, stats =
              Fst_atpg.Podem.run ~backtrack_limit ~scoap view ~faults:[ f ]
            in
            backtracks_plain :=
              !backtracks_plain + stats.Fst_atpg.Podem.backtracks;
            match result with
            | Fst_atpg.Podem.Untestable -> incr podem_untestable
            | Fst_atpg.Podem.Test _ | Fst_atpg.Podem.Aborted -> ())
          hard;
        (* Pruned: statically proven faults are skipped outright (that is
           the flow's phase-0 contract), the rest run with the implication
           hints. *)
        let backtracks_pruned = ref 0 in
        Array.iter
          (fun f ->
            if not (Hashtbl.mem proven f) then begin
              let _, stats =
                Fst_atpg.Podem.run ~backtrack_limit ~scoap
                  ~impossible:(Sca.impossible t) view ~faults:[ f ]
              in
              backtracks_pruned :=
                !backtracks_pruned + stats.Fst_atpg.Podem.backtracks
            end)
          hard;
        let s = t.Sca.stats in
        let prune_ratio =
          float_of_int s.Sca.untestable
          /. float_of_int (max 1 !podem_untestable)
        in
        ( name,
          Array.length hard,
          s,
          !podem_untestable,
          prune_ratio,
          !backtracks_plain,
          !backtracks_pruned ))
      (Lazy.force prepared_suite)
  in
  let t =
    Table.create ~title:"Static analysis vs PODEM over the hard faults"
      [
        ("name", Table.Left);
        ("hard", Table.Right);
        ("static", Table.Right);
        ("podem", Table.Right);
        ("prune", Table.Right);
        ("implications", Table.Right);
        ("bt plain", Table.Right);
        ("bt pruned", Table.Right);
        ("sca CPU", Table.Right);
      ]
  in
  List.iter
    (fun (name, hard, (s : Sca.stats), pu, ratio, btp, btr) ->
      Table.row t
        [
          name;
          Table.cell_int hard;
          Table.cell_int s.Sca.untestable;
          Table.cell_int pu;
          Printf.sprintf "%.0f%%" (100.0 *. ratio);
          Table.cell_int s.Sca.implications;
          Table.cell_int btp;
          Table.cell_int btr;
          Table.cell_seconds s.Sca.seconds;
        ])
    rows;
  Table.print t;
  let doc =
    J.Obj
      [
        ("scale", J.Float scale);
        ( "circuits",
          J.List
            (List.map
               (fun (name, hard, (s : Sca.stats), pu, ratio, btp, btr) ->
                 J.Obj
                   [
                     ("name", J.String name);
                     ("hard_faults", J.Int hard);
                     ("static_untestable", J.Int s.Sca.untestable);
                     ("podem_untestable", J.Int pu);
                     ("prune_ratio", J.Float ratio);
                     ("implications", J.Int s.Sca.implications);
                     ("learned", J.Int s.Sca.learned);
                     ("impossible_literals", J.Int s.Sca.impossible);
                     ("dominance_edges", J.Int s.Sca.dominance_edges);
                     ("sca_wall_s", J.Float s.Sca.seconds);
                     ("podem_backtracks_plain", J.Int btp);
                     ("podem_backtracks_pruned", J.Int btr);
                     ("podem_backtrack_delta", J.Int (btp - btr));
                   ])
               rows) );
      ]
  in
  let oc = open_out "BENCH_sca.json" in
  J.to_channel oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_sca.json (%d circuits)\n" (List.length rows)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the per-table kernels.                 *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let prep = prepare (Fst_gen.Suite.find ~scale:(min scale 0.1) "s1423") in
  let faults =
    Fst_fault.Fault.collapse prep.scanned (Fst_fault.Fault.universe prep.scanned)
  in
  let some_fault = faults.(Array.length faults / 2) in
  let stim = Sequences.alternating prep.scanned prep.config ~repeats:2 in
  let chunk = Array.sub faults 0 (min 62 (Array.length faults)) in
  let view =
    View.scan_mode prep.scanned ~constraints:prep.config.Scan.constraints ()
  in
  let scoap = Fst_testability.Scoap.compute view in
  let live_sink = Fst_obs.Sink.create ~metrics:(Fst_obs.Metrics.create ()) () in
  let tests =
    [
      Test.make ~name:"table2/classify-universe"
        (Staged.stage (fun () ->
             ignore (Classify.run prep.scanned prep.config faults)));
      Test.make ~name:"table3/podem-one-fault"
        (Staged.stage (fun () ->
             ignore
               (Fst_atpg.Podem.run ~backtrack_limit:200 ~scoap view
                  ~faults:[ some_fault ])));
      Test.make ~name:"table3/fsim-parallel-62"
        (Staged.stage (fun () ->
             ignore
               (Fst_fsim.Fsim.Parallel.detect_all prep.scanned ~faults:chunk
                  ~observe:prep.scanned.Circuit.outputs stim)));
      (* The observability overhead pair: the Engine entry point with the
         default null sink must cost the same as the raw backend (a single
         branch); a live metrics sink adds a couple of counters per call. *)
      Test.make ~name:"obs/fsim-engine-nullsink-62"
        (Staged.stage (fun () ->
             ignore
               (Fst_fsim.Fsim.Engine.detect_all ~jobs:1 prep.scanned
                  ~faults:chunk ~observe:prep.scanned.Circuit.outputs stim)));
      Test.make ~name:"obs/fsim-engine-livesink-62"
        (Staged.stage (fun () ->
             ignore
               (Fst_fsim.Fsim.Engine.detect_all ~obs:live_sink ~jobs:1
                  prep.scanned ~faults:chunk
                  ~observe:prep.scanned.Circuit.outputs stim)));
      Test.make ~name:"table3/fsim-serial-1"
        (Staged.stage (fun () ->
             ignore
               (Fst_fsim.Fsim.Serial.detect prep.scanned ~fault:some_fault
                  ~observe:prep.scanned.Circuit.outputs stim)));
      Test.make ~name:"table1/tpi-insert"
        (Staged.stage (fun () -> ignore (Tpi.insert prep.before)));
      Test.make ~name:"fig5/realize-comb-test"
        (Staged.stage (fun () ->
             ignore
               (Sequences.of_comb_test prep.scanned prep.config ~ff_values:[]
                  ~pi_values:[])));
    ]
  in
  let t =
    Table.create ~title:"Micro-benchmarks (Bechamel, monotonic clock)"
      [ ("kernel", Table.Left); ("time/run", Table.Right) ]
  in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let cfg =
        Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
      in
      let results =
        Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test
      in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
      in
      let analysis = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          let cell =
            match Analyze.OLS.estimates result with
            | Some [ ns ] ->
              estimates := (name, ns) :: !estimates;
              if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
              else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
              else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
              else Printf.sprintf "%.0f ns" ns
            | Some _ | None -> "n/a"
          in
          Table.row t [ name; cell ])
        analysis)
    tests;
  Table.print t;
  (match
     ( List.assoc_opt "table3/fsim-parallel-62" !estimates,
       List.assoc_opt "obs/fsim-engine-nullsink-62" !estimates,
       List.assoc_opt "obs/fsim-engine-livesink-62" !estimates )
   with
  | Some raw, Some null_s, Some live when raw > 0.0 ->
    Printf.printf
      "\nobs overhead vs raw backend: null sink %+.2f%%, live metrics sink %+.2f%%\n"
      (100.0 *. (null_s -. raw) /. raw)
      (100.0 *. (live -. raw) /. raw)
  | _ -> ())

(* ------------------------------------------------------------------ *)
(* Service benchmark: an in-process fst serve daemon hammered by        *)
(* concurrent clients, cold (real flows) then warm (cache hits).        *)
(* Recorded as BENCH_serve.json.                                        *)
(* ------------------------------------------------------------------ *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1))

let serve_bench () =
  let module J = Fst_obs.Json in
  let module Protocol = Fst_serve.Protocol in
  let module Client = Fst_serve.Client in
  let module Server = Fst_serve.Server in
  let n_clients = 8 and rounds = 3 in
  (* Eight distinct small circuits: enough that the cold phase runs real
     flows, small enough that the benchmark stays in seconds. *)
  let profiles =
    List.init 8 (fun i ->
        {
          Fst_gen.Gen.name = Printf.sprintf "svc%d" i;
          gates = 400 + (60 * i);
          ffs = 10 + (2 * i);
          pis = 8;
          pos = 6;
          seed = Int64.of_int (1000 + (7 * i));
        })
  in
  let quick_config =
    Config.(
      default |> with_jobs 1 |> with_comb_backtrack 100
      |> with_seq_backtrack 200 |> with_final_backtrack 500
      |> with_frames [ 1; 2 ]
      |> with_final_frames [ 1; 2; 4 ]
      |> to_json)
  in
  let submits =
    List.map
      (fun p ->
        {
          Protocol.kind = Protocol.Flow;
          netlist = Netfile.to_string (Fst_gen.Gen.generate p);
          name = p.Fst_gen.Gen.name;
          chains = 1;
          config = quick_config;
          wait = true;
          tenant = "bench";
        })
      profiles
  in
  let dir = Filename.temp_file "fst-bench-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let addr = Protocol.Unix_sock (Filename.concat dir "sock") in
  let server = Server.create ~workers:2 ~jobs_cap:1 ~addr () in
  let thread = Server.start server in
  let connect_retry () =
    let rec go n =
      match Client.connect addr with
      | c -> c
      | exception Unix.Unix_error _ when n > 0 ->
        Thread.delay 0.05;
        go (n - 1)
    in
    go 100
  in
  let timed c s =
    let t0 = Unix.gettimeofday () in
    match Client.submit c s with
    | Ok o -> (Unix.gettimeofday () -. t0, o.Client.cached)
    | Error e -> failwith ("serve bench submit: " ^ e)
  in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Thread.join thread)
    (fun () ->
      (* Cold: each circuit once, from one client — these are real flow
         runs and populate the cache. *)
      let c0 = connect_retry () in
      let cold =
        List.map
          (fun s ->
            let dt, cached = timed c0 s in
            assert (not cached);
            dt)
          submits
      in
      Client.close c0;
      (* Warm: n_clients concurrent clients replay the whole set rounds
         times; every submit must be served from the cache. *)
      let latencies = Array.make n_clients [] in
      let wall0 = Unix.gettimeofday () in
      let clients =
        List.init n_clients (fun i ->
            Thread.create
              (fun i ->
                let c = connect_retry () in
                for _ = 1 to rounds do
                  List.iter
                    (fun s ->
                      let dt, cached = timed c s in
                      if not cached then failwith "warm submit missed cache";
                      latencies.(i) <- dt :: latencies.(i))
                    submits
                done;
                Client.close c)
              i)
      in
      List.iter Thread.join clients;
      let warm_wall = Unix.gettimeofday () -. wall0 in
      let warm = Array.to_list latencies |> List.concat in
      let stats l =
        let a = Array.of_list l in
        Array.sort compare a;
        (percentile a 50.0, percentile a 99.0, Array.length a)
      in
      let cold_p50, cold_p99, cold_n = stats cold in
      let warm_p50, warm_p99, warm_n = stats warm in
      let jobs_per_s = float_of_int warm_n /. warm_wall in
      let speedup = cold_p50 /. warm_p50 in
      let t =
        Table.create ~title:"fst serve: concurrent clients vs the artifact cache"
          [ ("metric", Table.Left); ("value", Table.Right) ]
      in
      Table.row t [ "clients"; Table.cell_int n_clients ];
      Table.row t [ "cold submits"; Table.cell_int cold_n ];
      Table.row t [ "warm submits"; Table.cell_int warm_n ];
      Table.rule t;
      Table.row t [ "cold p50"; Printf.sprintf "%.1fms" (1e3 *. cold_p50) ];
      Table.row t [ "cold p99"; Printf.sprintf "%.1fms" (1e3 *. cold_p99) ];
      Table.row t [ "warm p50"; Printf.sprintf "%.2fms" (1e3 *. warm_p50) ];
      Table.row t [ "warm p99"; Printf.sprintf "%.2fms" (1e3 *. warm_p99) ];
      Table.rule t;
      Table.row t [ "warm jobs/sec"; Printf.sprintf "%.0f" jobs_per_s ];
      Table.row t [ "p50 speedup (cold/warm)"; Printf.sprintf "%.0fx" speedup ];
      Table.print t;
      if speedup < 10.0 then
        Printf.printf "WARNING: warm p50 is only %.1fx the cold p50\n" speedup;
      let doc =
        J.Obj
          [
            ("clients", J.Int n_clients);
            ("circuits", J.Int (List.length submits));
            ("rounds", J.Int rounds);
            ( "cold",
              J.Obj
                [
                  ("n", J.Int cold_n);
                  ("p50_ms", J.Float (1e3 *. cold_p50));
                  ("p99_ms", J.Float (1e3 *. cold_p99));
                ] );
            ( "warm",
              J.Obj
                [
                  ("n", J.Int warm_n);
                  ("p50_ms", J.Float (1e3 *. warm_p50));
                  ("p99_ms", J.Float (1e3 *. warm_p99));
                ] );
            ("warm_jobs_per_s", J.Float jobs_per_s);
            ("p50_speedup", J.Float speedup);
            ("cache", Fst_serve.Cache.stats_to_json
                        (Fst_serve.Cache.stats (Server.cache server)));
          ]
      in
      let oc = open_out "BENCH_serve.json" in
      J.to_channel oc doc;
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote BENCH_serve.json (%d clients, %d warm submits)\n"
        n_clients warm_n)

let usage () =
  print_endline
    "usage: main.exe \
     [table1|table2|table3|fig5|ablate-alt|ablate-dist|ablate-trunc|ablate-order|ablate-compact|ablate-rtpg|coverage|fsim|flow|sca|serve|micro|all] \
     [fsim --check]"

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
  | "fsim" ->
    if Array.exists (fun a -> a = "--check") Sys.argv then fsim_check ()
    else fsim_bench ()
  | "flow" -> flow_bench ()
  | "sca" -> sca_bench ()
  | "serve" -> serve_bench ()
  | "micro" -> micro ()
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
    coverage_table ();
    fsim_bench ();
    flow_bench ();
    sca_bench ();
    serve_bench ();
    micro ()
  | _ -> usage ()
