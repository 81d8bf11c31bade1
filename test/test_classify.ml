open Fst_logic
open Fst_netlist
open Fst_fault
open Fst_tpi
open Fst_core
module Q = QCheck

let scan_small ?(gates = 150) ?(ffs = 10) ?(chains = 2) seed =
  let c = Helpers.small_seq_circuit ~gates ~ffs seed in
  Tpi.insert ~options:{ Tpi.default_options with Tpi.chains; justify_depth = 4 } c

(* The paper's Figure 2 scenario: an AND gate on the scan path whose side
   input pi0 is justified (or forced) to 1 in scan mode. The fault
   "side input s-a-0" breaks the chain (category 1: it forces chain nets);
   "side input s-a-1" leaves the chain untouched (category 3). *)
let test_figure2_categories () =
  let c, pi0, _ff0, _ff1, _g0 = Helpers.figure2_circuit () in
  let scanned, config = Tpi.insert ~options:{ Tpi.default_options with Tpi.chains = 1; justify_depth = 4 } c in
  let faults =
    [|
      { Fault.site = Fault.Stem pi0; stuck = false };
      { Fault.site = Fault.Stem pi0; stuck = true };
    |]
  in
  let r = Classify.run scanned config faults in
  (match r.Classify.infos.(0).Classify.category with
   | Classify.Cat1 | Classify.Cat2 -> ()
   | Classify.Cat3 -> Alcotest.fail "pi0 s-a-0 must affect the chain");
  match r.Classify.infos.(1).Classify.category with
  | Classify.Cat3 -> ()
  | Classify.Cat1 | Classify.Cat2 ->
    Alcotest.fail "pi0 s-a-1 agrees with the scan-mode value; chain untouched"

let test_chain_stem_faults_are_cat1 () =
  let scanned, config = scan_small 3L in
  let ch = config.Scan.chains.(0) in
  let ff = ch.Scan.ffs.(0) in
  let faults =
    [|
      { Fault.site = Fault.Stem ff; stuck = false };
      { Fault.site = Fault.Stem ff; stuck = true };
    |]
  in
  let r = Classify.run scanned config faults in
  Array.iter
    (fun info ->
      match info.Classify.category with
      | Classify.Cat1 -> ()
      | Classify.Cat2 | Classify.Cat3 ->
        Alcotest.fail "a stuck chain flip-flop output must be category 1")
    r.Classify.infos

let test_locations_ordering () =
  let scanned, config = scan_small 5L in
  let faults = Fault.collapse scanned (Fault.universe scanned) in
  let r = Classify.run scanned config faults in
  Array.iter
    (fun info ->
      let rec sorted = function
        | [] | [ _ ] -> true
        | (c1, s1, _) :: ((c2, s2, _) :: _ as rest) ->
          (c1 < c2 || (c1 = c2 && s1 <= s2)) && sorted rest
      in
      Alcotest.(check bool) "locations sorted" true (sorted info.Classify.locations);
      match info.Classify.category with
      | Classify.Cat3 ->
        Alcotest.(check int) "cat3 has no locations" 0
          (List.length info.Classify.locations)
      | Classify.Cat1 | Classify.Cat2 ->
        Alcotest.(check bool) "cat1/2 have locations" true
          (info.Classify.locations <> []))
    r.Classify.infos

let test_cat2_priority () =
  let scanned, config = scan_small 7L in
  let faults = Fault.collapse scanned (Fault.universe scanned) in
  let r = Classify.run scanned config faults in
  Array.iter
    (fun info ->
      let has_side_x =
        List.exists
          (fun (_, _, k) -> k = Classify.Side_unknown)
          info.Classify.locations
      in
      match info.Classify.category with
      | Classify.Cat2 ->
        Alcotest.(check bool) "cat2 has a side-unknown location" true has_side_x
      | Classify.Cat1 ->
        Alcotest.(check bool) "cat1 has no side-unknown location" false has_side_x
      | Classify.Cat3 -> ())
    r.Classify.infos

(* Category-1 faults are detected by the alternating sequence (the paper's
   claim for the easy faults); simulated ground truth. *)
let prop_cat1_detected_by_alternating =
  Q.Test.make ~name:"category-1 faults caught by alternating sequence" ~count:8
    (Q.map Int64.of_int (Q.int_bound 100000))
    (fun seed ->
      let scanned, config = scan_small ~gates:120 ~ffs:8 ~chains:1 seed in
      let faults = Fault.collapse scanned (Fault.universe scanned) in
      let r = Classify.run scanned config faults in
      let stim = Sequences.alternating scanned config ~repeats:3 in
      let cat1 = Array.map (fun i -> faults.(i)) r.Classify.easy in
      let out =
        Fst_fsim.Fsim.Engine.detect_all ~jobs:1 scanned ~faults:cat1
          ~observe:scanned.Circuit.outputs stim
      in
      Array.for_all (fun o -> o <> None) out)

(* Category-3 faults never affect the chains: under any fault of category 3
   the chains still shift correctly (checked by shifting a pattern on the
   faulty machine and reading the faulty flip-flop values directly). *)
let prop_cat3_chain_untouched =
  Q.Test.make ~name:"category-3 faults leave shifting intact" ~count:6
    (Q.map Int64.of_int (Q.int_bound 100000))
    (fun seed ->
      let scanned, config = scan_small ~gates:100 ~ffs:6 ~chains:1 seed in
      let faults = Fault.collapse scanned (Fault.universe scanned) in
      let r = Classify.run scanned config faults in
      let ch = config.Scan.chains.(0) in
      let len = Array.length ch.Scan.ffs in
      let desired = Array.init len (fun p -> V3.of_bool (p mod 3 <> 1)) in
      let stream = Scan.scan_in_stream ch ~values:desired in
      (* A couple of extra cycles so the fully-loaded state is observed. *)
      let stim =
        Array.init (len + 2) (fun t ->
            let base = if t = 0 then config.Scan.constraints else [] in
            let v = if t < len then stream.(t) else V3.X in
            (ch.Scan.scan_in, v) :: base)
      in
      let cat3 =
        Array.to_list r.Classify.infos
        |> List.filter (fun i -> i.Classify.category = Classify.Cat3)
        |> List.map (fun i -> i.Classify.fault)
      in
      let sample =
        List.filteri (fun i _ -> i mod (max 1 (List.length cat3 / 30)) = 0) cat3
      in
      List.for_all
        (fun fault ->
          (* Simulate the faulty machine directly and read the chain. *)
          let module S = Fst_fsim.Fsim.Serial in
          (* Reuse the serial machinery through detect on a virtual
             observation of each flip-flop: if the faulty chain state were
             wrong, ff values would differ from the good machine. *)
          let observe = ch.Scan.ffs in
          S.detect scanned ~fault ~observe stim = None)
        sample)

let test_affecting_fraction_sane () =
  let scanned, config = scan_small ~gates:300 ~ffs:20 13L in
  let faults = Fault.collapse scanned (Fault.universe scanned) in
  let r = Classify.run scanned config faults in
  let frac =
    float_of_int r.Classify.affecting /. float_of_int (Array.length faults)
  in
  (* The paper reports ~25% of faults affecting the chain; synthetic
     circuits land in a broad band around that. *)
  Alcotest.(check bool)
    (Printf.sprintf "fraction %.2f in (0, 0.9)" frac)
    true
    (frac > 0.0 && frac < 0.9);
  Alcotest.(check int) "easy+hard = affecting" r.Classify.affecting
    (Array.length r.Classify.easy + Array.length r.Classify.hard)

(* A reconvergence glitch is not an oscillation. On this circuit pi4
   s-a-0 forces chain 0's segments 2 to 6 to constants. A propagation
   that widens a net to X on its third update, whatever caused it, turns
   a glitch on the way to segment 4's side input into an unknown and
   calls the fault category 2. The alternating sequence does detect
   it. *)
let test_glitch_is_not_unknown () =
  let c =
    Fst_gen.Gen.generate
      { Fst_gen.Gen.name = "r477_60"; gates = 60; ffs = 6; pis = 6; pos = 4;
        seed = 477L }
  in
  let scanned, config =
    match Tpi.insert_checked ~chains:1 c with
    | Ok r -> r
    | Error e -> Alcotest.fail (Tpi.insert_error_message e)
  in
  let fault =
    { Fault.site = Fault.Stem (Circuit.find_net scanned "pi4"); stuck = false }
  in
  let info = (Classify.run scanned config [| fault |]).Classify.infos.(0) in
  Alcotest.(check bool) "category 1" true (info.Classify.category = Classify.Cat1);
  Alcotest.(check (list (triple int int bool)))
    "forced constants at chain 0, segments 2-6"
    (List.init 5 (fun k -> (0, k + 2, true)))
    (List.map
       (fun (ch, seg, k) -> (ch, seg, k = Classify.Forced_constant))
       info.Classify.locations);
  let stim = Sequences.alternating scanned config ~repeats:2 in
  Alcotest.(check bool) "the alternating sequence detects it" true
    ((Fst_fsim.Fsim.Engine.detect_all ~jobs:1 scanned ~faults:[| fault |]
        ~observe:scanned.Circuit.outputs stim).(0)
    <> None)

(* [Classify.run] is the oracle's fixpoint: the same category and
   locations for every fault of random circuits with one or two chains,
   at one and two jobs. *)
let prop_classify_matches_oracle =
  Q.Test.make ~name:"classification matches the scalar oracle" ~count:12
    Q.(pair (int_bound 100000) (int_range 1 2))
    (fun (seed, chains) ->
      let gates = 40 + (seed mod 120) in
      let c =
        Fst_gen.Gen.generate
          { Fst_gen.Gen.name = "cls"; gates; ffs = 4 + (seed mod 9);
            pis = 3 + (seed mod 5); pos = 2 + (seed mod 3);
            seed = Int64.of_int seed }
      in
      match Tpi.insert_checked ~chains c with
      | Error _ -> Q.assume_fail ()
      | Ok (scanned, config) ->
        let faults = Fault.collapse scanned (Fault.universe scanned) in
        let expected = Classify_oracle.run scanned config faults in
        List.for_all
          (fun jobs ->
            let r = Classify.run ~jobs scanned config faults in
            Array.for_all2
              (fun info (cat, locs) ->
                info.Classify.category = cat && info.Classify.locations = locs)
              r.Classify.infos expected)
          [ 1; 2 ])

let suite =
  [
    Alcotest.test_case "figure2 categories" `Quick test_figure2_categories;
    Alcotest.test_case "chain stems are cat1" `Quick test_chain_stem_faults_are_cat1;
    Alcotest.test_case "locations ordering" `Quick test_locations_ordering;
    Alcotest.test_case "cat2 priority" `Quick test_cat2_priority;
    Helpers.qcheck prop_cat1_detected_by_alternating;
    Helpers.qcheck prop_cat3_chain_untouched;
    Alcotest.test_case "affecting fraction sane" `Quick test_affecting_fraction_sane;
    Alcotest.test_case "a glitch is not an unknown" `Quick test_glitch_is_not_unknown;
    Helpers.qcheck prop_classify_matches_oracle;
  ]
