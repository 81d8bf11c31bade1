open Fst_logic
open Fst_netlist
open Fst_tpi
open Fst_core
module Sca = Fst_sca.Sca
module Fault = Fst_fault.Fault
module Q = QCheck

(* The textbook redundant circuit: r = AND(a, NOT a) is constant 0, so
   r s-a-0 is unexcitable. *)
let redundant_circuit () =
  let b = Builder.create ~name:"redundant" () in
  let a = Builder.add_input ~name:"a" b in
  let na = Builder.add_gate ~name:"na" b Gate.Not [ a ] in
  let r = Builder.add_gate ~name:"r" b Gate.And [ a; na ] in
  Builder.mark_output b r;
  (Builder.freeze b, a, na, r)

(* Analyze over the uncollapsed universe, so every fault is its own
   target (collapsing would fold [r s-a-0] into its class
   representative). *)
let analyze_all c ~constraints =
  let view = View.scan_mode c ~constraints in
  let faults = Fault.universe c in
  (Sca.analyze view ~faults, faults)

let scan_small ?(gates = 120) ?(ffs = 8) seed =
  let c = Helpers.small_seq_circuit ~gates ~ffs seed in
  Tpi.insert ~options:{ Tpi.default_options with Tpi.chains = 1 } c

let scan_view scanned (config : Scan.config) =
  View.scan_mode scanned ~constraints:config.Scan.constraints

let test_redundant_proven () =
  let c, _, _, r = redundant_circuit () in
  let t, _ = analyze_all c ~constraints:[] in
  (* Ternary propagation alone cannot decide r = AND(a, NOT a); the case
     split on [a] proves the literal r=1 impossible instead. *)
  Alcotest.(check bool) "r=1 proven impossible" true
    (Sca.impossible t r V3.One);
  let proven f =
    List.exists (fun (u : Sca.untestable) -> Fault.equal u.Sca.fault f)
      t.Sca.untestable
  in
  Alcotest.(check bool) "r s-a-0 proven" true
    (proven { Fault.site = Fault.Stem r; stuck = false });
  Alcotest.(check int) "stats.untestable matches" t.Sca.stats.Sca.untestable
    (List.length t.Sca.untestable)

let test_impossible_literals () =
  let c, _, _, r = redundant_circuit () in
  let t, _ = analyze_all c ~constraints:[] in
  Alcotest.(check bool) "r=1 impossible" true (Sca.impossible t r V3.One);
  Alcotest.(check bool) "r=0 possible" false (Sca.impossible t r V3.Zero);
  Alcotest.(check bool) "X never impossible" false (Sca.impossible t r V3.X)

let test_constrained_constants () =
  (* Pinning the input decides the whole circuit. *)
  let c, a, na, r = redundant_circuit () in
  let t, _ = analyze_all c ~constraints:[ (a, V3.One) ] in
  Helpers.check_v3 "na" V3.Zero t.Sca.base.(na);
  Helpers.check_v3 "r" V3.Zero t.Sca.base.(r);
  Alcotest.(check bool) "a=0 impossible" true (Sca.impossible t a V3.Zero)

let test_proofs_check () =
  (* Every shipped proof re-derives on a scanned generated circuit. *)
  let scanned, config = scan_small 3L in
  let view = scan_view scanned config in
  let faults = Fault.collapse scanned (Fault.universe scanned) in
  let t = Sca.analyze view ~faults in
  Alcotest.(check bool) "some faults proven" true (t.Sca.untestable <> []);
  List.iter
    (fun (u : Sca.untestable) ->
      if not (Sca.check t u) then
        Alcotest.failf "proof of %s failed re-checking"
          (Fault.to_string scanned u.Sca.fault))
    t.Sca.untestable

let test_json_round_trip () =
  let scanned, config = scan_small 5L in
  let view = scan_view scanned config in
  let faults = Fault.collapse scanned (Fault.universe scanned) in
  let t = Sca.analyze view ~faults in
  let s = Fst_obs.Json.to_string (Sca.to_json t) in
  match Fst_obs.Json.of_string s with
  | Fst_obs.Json.Obj _ -> ()
  | _ -> Alcotest.fail "sca report is not a JSON object"

let test_collapse_deterministic () =
  (* Representatives do not depend on the input order of the fault set:
     a reversed universe collapses to the same representative set. *)
  let scanned, _ = scan_small 7L in
  let universe = Fault.universe scanned in
  let reversed =
    Array.init (Array.length universe) (fun i ->
        universe.(Array.length universe - 1 - i))
  in
  let reps1, _ = Fault.collapse_classes scanned universe in
  let reps2, _ = Fault.collapse_classes scanned reversed in
  let sorted a =
    let a = Array.copy a in
    Array.sort Fault.compare a;
    a
  in
  let s1 = sorted reps1 and s2 = sorted reps2 in
  Alcotest.(check int) "same class count" (Array.length s1) (Array.length s2);
  Array.iteri
    (fun i f ->
      if not (Fault.equal f s2.(i)) then
        Alcotest.failf "representative %d differs: %s vs %s" i
          (Fault.to_string scanned f)
          (Fault.to_string scanned s2.(i)))
    s1

let seeds = Q.map Int64.of_int (Q.int_bound 100000)

(* Soundness: every statically proven fault is PODEM-untestable on the
   same view (or aborted — never given a test). *)
let prop_proven_is_podem_untestable =
  Q.Test.make ~name:"statically proven faults have no PODEM test" ~count:8
    seeds
    (fun seed ->
      let scanned, config = scan_small seed in
      let view = scan_view scanned config in
      let faults = Fault.collapse scanned (Fault.universe scanned) in
      let t = Sca.analyze view ~faults in
      let scoap = Fst_testability.Scoap.compute view in
      List.for_all
        (fun (u : Sca.untestable) ->
          match Fst_atpg.Podem.run ~scoap view ~faults:[ u.Sca.fault ] with
          | Fst_atpg.Podem.Test _, _ -> false
          | (Fst_atpg.Podem.Untestable | Fst_atpg.Podem.Aborted), _ -> true)
        t.Sca.untestable)

(* The phase-0 prune is a pure observer: it moves faults between the
   untestable buckets but never changes what the flow detects. *)
let prop_prune_pure_observer =
  let quick =
    Config.(
      default |> with_comb_backtrack 100 |> with_seq_backtrack 200
      |> with_final_backtrack 500 |> with_frames [ 1; 2 ]
      |> with_final_frames [ 1; 2; 4 ])
  in
  Q.Test.make ~name:"sca prune never changes the detected set" ~count:4 seeds
    (fun seed ->
      let scanned, config = scan_small ~gates:150 ~ffs:10 seed in
      let on = Flow.run ~config:Config.(quick |> with_sca_prune true) scanned config in
      let off =
        Flow.run ~config:Config.(quick |> with_sca_prune false) scanned config
      in
      let untestable r =
        List.sort Fault.compare
          (List.concat_map (Flow.faults_with r)
             Flow.[ Untestable_static; Untestable_step2; Untestable_step3 ])
      in
      on.Flow.step2.Flow.detected = off.Flow.step2.Flow.detected
      && on.Flow.step3.Flow.detected = off.Flow.step3.Flow.detected
      && Flow.faults_with on Flow.Undetected
         = Flow.faults_with off Flow.Undetected
      && untestable on = untestable off)

(* Consistency: the propagation closure of any non-impossible literal never
   implies both values of one net. *)
let prop_implications_conflict_free =
  Q.Test.make ~name:"implication closure is conflict-free" ~count:8 seeds
    (fun seed ->
      let scanned, config = scan_small seed in
      let view = scan_view scanned config in
      let faults = Fault.collapse scanned (Fault.universe scanned) in
      let t = Sca.analyze view ~faults in
      let n = Array.length t.Sca.base in
      let ok = ref true in
      for net = 0 to n - 1 do
        List.iter
          (fun value ->
            if not (Sca.impossible t net (V3.of_bool value)) then begin
              let seen = Hashtbl.create 16 in
              List.iter
                (fun (m, v) ->
                  match Hashtbl.find_opt seen m with
                  | Some v' when v' <> v -> ok := false
                  | Some _ -> ()
                  | None -> Hashtbl.add seen m v)
                (Sca.implied t ~net ~value)
            end)
          [ false; true ]
      done;
      !ok)

(* --- golden digests ------------------------------------------------------- *)

(* The analysis over a fixed corpus, as [fst sca --json] would print it
   without the [seconds] field: the two example netlists with one chain,
   the 12-circuit suite at scale 0.025 with the paper's chain counts,
   s38417 at scale 0.058 with one chain, and the 30 generated netlists of
   the serve-mix benchmark with one chain. A speed change to the engine
   must leave every digest as it is. *)
let golden_corpus () =
  let scanned name c chains =
    let s, cfg =
      Tpi.insert ~options:{ Tpi.default_options with Tpi.chains } c
    in
    (name, scan_view s cfg, Fault.collapse s (Fault.universe s))
  in
  (* the copy [dune runtest] makes next to the suite, else the source *)
  let build = Filename.dirname (Filename.dirname Sys.executable_name) in
  let example f =
    let in_tree root =
      List.fold_left Filename.concat root [ "examples"; "data"; f ]
    in
    let path = in_tree build in
    let path =
      if Sys.file_exists path then path
      else in_tree (Filename.dirname (Filename.dirname build))
    in
    scanned f (Netfile.parse_file path) 1
  in
  let s38417 = Fst_gen.Suite.find ~scale:0.058 "s38417" in
  List.map example [ "counter4.net"; "gray3.net" ]
  @ List.map
      (fun (e : Fst_gen.Suite.entry) ->
        scanned e.profile.Fst_gen.Gen.name (Fst_gen.Gen.generate e.profile)
          e.chains)
      (Fst_gen.Suite.suite ~scale:0.025 ())
  @ [ scanned "s38417@0.058" (Fst_gen.Gen.generate s38417.profile) 1 ]
  @ List.init 30 (fun k ->
        let gates = 60 + (140 * k / 29) in
        let name = Printf.sprintf "svc%02d" k in
        scanned name
          (Fst_gen.Gen.generate
             {
               Fst_gen.Gen.name;
               gates;
               ffs = max 4 (gates / 12);
               pis = 8;
               pos = 6;
               seed = Int64.of_int (5000 + k);
             })
          1)

let golden_digests =
  [
    ("counter4.net", "010edbf58d154d5c30e20dcab732746f");
    ("gray3.net", "f90fac2f5722bbe6b8b3d13a9a29be9b");
    ("s1423", "8e128d71d438cb192b2c9de97c19e4ce");
    ("s1488", "694850c1ca4a5572f510f5dfcf59a5bc");
    ("s1494", "4ea6a503909bd1122331b05edecc937c");
    ("s3330", "c00bcccb9c58854b8a2139626fc53f29");
    ("s4863", "086b7287104b2a25312c7a842c7229bf");
    ("s5378", "dcf002ff15348c3e2c32ddef232b4a78");
    ("s6669", "bcc32a7a6d25392cee619826267aed51");
    ("s9234", "c35186c332b4c4a89d07b0d57990c291");
    ("s13207", "61f555d29d95f9b7aa32b43af51ff960");
    ("s15850", "c748903de45159b46da09383378e2595");
    ("s38417", "6d4818104761370f752ad84412d382ec");
    ("s38584", "5b5796808332fa83ca9ff85994d0cfd0");
    ("s38417@0.058", "f119cf5157f8a5640caa10e42a9b06a7");
    ("svc00", "62b6267a6322880a615309ecbff91146");
    ("svc01", "a0133233a9259642b3f3d67622b7e10b");
    ("svc02", "4083adc680297c40fde5ac1f6327e6dd");
    ("svc03", "a4c12a3df11b67b165a776c4d87c8b6c");
    ("svc04", "f31536eec6a35062c21b35af035a1f07");
    ("svc05", "dd94bb7fc83c6ba0404e36e492b5376d");
    ("svc06", "fd28ed2069cb7b1cb090e42a16e8b735");
    ("svc07", "987c3bd82e771e4ad81324419ff4ee8f");
    ("svc08", "5381866a318b19215ac516e20af6596a");
    ("svc09", "29f33ca0c18de3e82e87555e189cc5f5");
    ("svc10", "dab7b3562e6059e65e6b973cf95d47e4");
    ("svc11", "8b3cd67b0217f371defb47e9719d9577");
    ("svc12", "33270fc0b5f6d9c68678aaaf0ab6f2ff");
    ("svc13", "1fac18b348d176658ed4dabaea38f47d");
    ("svc14", "1ec28c04a8693555c2151fd161398fde");
    ("svc15", "24746e2b651b4aa373025ef877734a6c");
    ("svc16", "0208f0fd7fb5725b2b87b2d607e6e236");
    ("svc17", "bd23f973603fe7d58ccb891c4f6382f7");
    ("svc18", "9d63d16f1c184f5ef86ecb4d34e7ad3d");
    ("svc19", "d7f9f960595a2f1392244c76e8ccc335");
    ("svc20", "b3ea9edc72e98be756f3d11eacf6a622");
    ("svc21", "51b2a29eb8eeee95bb8baf7d30a80449");
    ("svc22", "ee6a8ba59430375f341081635a62fff1");
    ("svc23", "9c9577f3216634fc2b003b20a8a60a2b");
    ("svc24", "b9f8ba2a04fed995580a2662a293ec6e");
    ("svc25", "e6e96c2d0d2f7917a5e165079f5b9fb1");
    ("svc26", "e27c1e567bf1c4839322ef915db2697c");
    ("svc27", "0d4c9b001593c52bf2eddbaca9daa179");
    ("svc28", "a33140cc0f41786af2368f33627db161");
    ("svc29", "c4dc13c754e8250649d29fae551720de");
  ]

let test_golden_digests () =
  let drop_seconds = function
    | Fst_obs.Json.Obj kvs ->
      Fst_obs.Json.Obj
        (List.map
           (function
             | "stats", Fst_obs.Json.Obj st ->
               ("stats", Fst_obs.Json.Obj (List.remove_assoc "seconds" st))
             | kv -> kv)
           kvs)
    | j -> j
  in
  List.iter
    (fun (name, view, faults) ->
      let t = Sca.analyze view ~faults in
      let json = Fst_obs.Json.to_string (drop_seconds (Sca.to_json t)) in
      Alcotest.(check string) name
        (List.assoc name golden_digests)
        (Digest.to_hex (Digest.string json)))
    (golden_corpus ())

let suite =
  [
    Alcotest.test_case "redundant fault proven" `Quick test_redundant_proven;
    Alcotest.test_case "impossible literals" `Quick test_impossible_literals;
    Alcotest.test_case "constrained constants" `Quick
      test_constrained_constants;
    Alcotest.test_case "proofs re-check" `Quick test_proofs_check;
    Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "golden digests" `Quick test_golden_digests;
    Alcotest.test_case "collapse representatives deterministic" `Quick
      test_collapse_deterministic;
    Helpers.qcheck prop_proven_is_podem_untestable;
    Helpers.qcheck prop_prune_pure_observer;
    Helpers.qcheck prop_implications_conflict_free;
  ]
