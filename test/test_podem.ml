open Fst_logic
open Fst_netlist
open Fst_fault
open Fst_atpg
module Q = QCheck

let comb_view (c : Circuit.t) =
  View.make c
    ~free:(Array.to_list c.Circuit.inputs)
    ~fixed:[]
    ~observe:(Array.to_list c.Circuit.outputs |> List.map (fun o -> View.Onet o))

let run_assignment_detects c fault assignment =
  let stim = [| assignment |] in
  Fst_fsim.Fsim.Serial.detect c ~fault ~observe:c.Circuit.outputs stim <> None

let test_and_gate_test () =
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let b2 = Builder.add_input ~name:"b" b in
  let y = Builder.add_gate ~name:"y" b Gate.And [ a; b2 ] in
  Builder.mark_output b y;
  let c = Builder.freeze b in
  let view = comb_view c in
  let fault = { Fault.site = Fault.Stem y; stuck = false } in
  match Podem.run view ~faults:[ fault ] with
  | Podem.Test assignment, _ ->
    Alcotest.(check bool) "test detects" true
      (run_assignment_detects c fault assignment);
    (* The only test for y s-a-0 is a=b=1. *)
    Alcotest.(check bool) "a assigned 1" true
      (List.mem (a, V3.One) assignment);
    Alcotest.(check bool) "b assigned 1" true
      (List.mem (b2, V3.One) assignment)
  | (Podem.Untestable | Podem.Aborted), _ -> Alcotest.fail "expected a test"

let test_redundant_fault_untestable () =
  (* y = OR(a, NOT a) is constant 1: y s-a-1 is untestable. *)
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let na = Builder.add_gate ~name:"na" b Gate.Not [ a ] in
  let y = Builder.add_gate ~name:"y" b Gate.Or [ a; na ] in
  Builder.mark_output b y;
  let c = Builder.freeze b in
  let fault = { Fault.site = Fault.Stem y; stuck = true } in
  match Podem.run (comb_view c) ~faults:[ fault ] with
  | Podem.Untestable, _ -> ()
  | Podem.Test _, _ -> Alcotest.fail "redundant fault got a test"
  | Podem.Aborted, _ -> Alcotest.fail "redundant fault aborted"

let test_fixed_input_blocks_test () =
  (* y = AND(a, k) with k tied to 0: a faults are untestable. *)
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let k = Builder.add_input ~name:"k" b in
  let y = Builder.add_gate ~name:"y" b Gate.And [ a; k ] in
  Builder.mark_output b y;
  let c = Builder.freeze b in
  let view =
    View.make c ~free:[ a ] ~fixed:[ (k, V3.Zero) ] ~observe:[ View.Onet y ]
  in
  let fault = { Fault.site = Fault.Stem a; stuck = true } in
  match Podem.run view ~faults:[ fault ] with
  | Podem.Untestable, _ -> ()
  | Podem.Test _, _ -> Alcotest.fail "blocked fault got a test"
  | Podem.Aborted, _ -> Alcotest.fail "blocked fault aborted"

let test_branch_fault_test () =
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let y1 = Builder.add_gate ~name:"y1" b Gate.Buf [ a ] in
  let y2 = Builder.add_gate ~name:"y2" b Gate.Not [ a ] in
  Builder.mark_output b y1;
  Builder.mark_output b y2;
  let c = Builder.freeze b in
  let fault = { Fault.site = Fault.Branch { node = y1; pin = 0 }; stuck = true } in
  match Podem.run (comb_view c) ~faults:[ fault ] with
  | Podem.Test assignment, _ ->
    Alcotest.(check bool) "test detects" true
      (run_assignment_detects c fault assignment)
  | (Podem.Untestable | Podem.Aborted), _ ->
    Alcotest.fail "branch fault should be testable"

(* PODEM agrees with exhaustive search on random small circuits:
   - a produced test must actually detect (verified by fault simulation);
   - an Untestable verdict must match the brute-force answer. *)
let prop_podem_vs_brute_force =
  Q.Test.make ~name:"podem agrees with brute force" ~count:30
    (Q.map Int64.of_int (Q.int_bound 1000000))
    (fun seed ->
      let rng = Fst_gen.Rng.create seed in
      let c = Helpers.random_comb_circuit rng ~inputs:5 ~gates:14 in
      let view = comb_view c in
      let scoap = Fst_testability.Scoap.compute view in
      let faults = Fault.collapse c (Fault.universe c) in
      let ok = ref true in
      Array.iter
        (fun fault ->
          match Podem.run ~backtrack_limit:4000 ~scoap view ~faults:[ fault ] with
          | Podem.Test assignment, _ ->
            if not (run_assignment_detects c fault assignment) then ok := false
          | Podem.Untestable, _ ->
            if Helpers.brute_force_detectable c fault then ok := false
          | Podem.Aborted, _ -> ())
        faults;
      !ok)

(* Multi-site injection: a fault on every copy of a duplicated subcircuit
   (as used in time-frame expansion) is found when any copy detects. *)
let test_multi_site () =
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let en = Builder.add_input ~name:"en" b in
  let y1 = Builder.add_gate ~name:"y1" b Gate.And [ a; en ] in
  let y2 = Builder.add_gate ~name:"y2" b Gate.Or [ a; en ] in
  Builder.mark_output b y1;
  Builder.mark_output b y2;
  let c = Builder.freeze b in
  let faults =
    [
      { Fault.site = Fault.Stem y1; stuck = false };
      { Fault.site = Fault.Stem y2; stuck = false };
    ]
  in
  match Podem.run (comb_view c) ~faults with
  | Podem.Test _, _ -> ()
  | (Podem.Untestable | Podem.Aborted), _ ->
    Alcotest.fail "multi-site fault should be trivially testable"

let test_stats_accounting () =
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let y = Builder.add_gate ~name:"y" b Gate.Not [ a ] in
  Builder.mark_output b y;
  let c = Builder.freeze b in
  let fault = { Fault.site = Fault.Stem y; stuck = false } in
  let _, st = Podem.run (comb_view c) ~faults:[ fault ] in
  Alcotest.(check bool) "implied at least once" true (st.Podem.implications >= 1)

(* --- identity with the frozen full-sweep search ------------------------- *)

(* [Podem_oracle] is the search as it was before implication became
   event-driven and X-path checks lazy. The current search must make the
   same decisions: the same result and test, and the same backtrack,
   decision and implication counts, at every backtrack limit. *)
let agrees_with_oracle ~scoap view faults =
  List.for_all
    (fun limit ->
      let r, st = Podem.run ~backtrack_limit:limit ~scoap view ~faults in
      let ro, so =
        Podem_oracle.run ~backtrack_limit:limit ~scoap view ~faults
      in
      (match (r, ro) with
       | Podem.Test a, Podem_oracle.Test b -> a = b
       | Podem.Untestable, Podem_oracle.Untestable
       | Podem.Aborted, Podem_oracle.Aborted -> true
       | (Podem.Test _ | Podem.Untestable | Podem.Aborted), _ -> false)
      && st.Podem.backtracks = so.Podem_oracle.backtracks
      && st.Podem.decisions = so.Podem_oracle.decisions
      && st.Podem.implications = so.Podem_oracle.implications)
    [ 1; 4; 50 ]

(* Every collapsed fault alone, then each with a random partner from the
   whole universe, so branch faults on several gates, or on two pins of
   one gate, meet in one search. *)
let prop_comb_matches_oracle =
  Q.Test.make ~name:"podem = oracle on comb views"
    ~count:20
    (Q.map Int64.of_int (Q.int_bound 1000000))
    (fun seed ->
      let rng = Fst_gen.Rng.create seed in
      let c = Helpers.random_comb_circuit rng ~inputs:6 ~gates:24 in
      let view = comb_view c in
      let scoap = Fst_testability.Scoap.compute view in
      let universe = Fault.universe c in
      let faults = Fault.collapse c universe in
      Array.for_all (fun f -> agrees_with_oracle ~scoap view [ f ]) faults
      && Array.for_all
           (fun f ->
             agrees_with_oracle ~scoap view
               [ f; Fst_gen.Rng.pick rng universe ])
           faults)

(* The frontier is enumerated from the consumers of effect nets and the
   branch-faulted gates, then filtered pin by pin. Two hand-built cases
   sit where the two views differ. *)

(* g2 = OR(a, c) and g1 = AND(a, b), both observed, with the branch g1.a
   s-a-1 and a s-a-0. The search excites the last-listed site first, so
   a = 1: the net a carries an effect, but g1's pin reads the stuck 1,
   equal to a's good value. g1 consumes an effect net and still is no
   frontier gate, so the test goes through g2 and leaves b alone (were g1
   in the frontier, it would come first: same observability, higher
   net). *)
let test_masking_branch_matches_oracle () =
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let bi = Builder.add_input ~name:"b" b in
  let ci = Builder.add_input ~name:"c" b in
  let g2 = Builder.add_gate ~name:"g2" b Gate.Or [ a; ci ] in
  let g1 = Builder.add_gate ~name:"g1" b Gate.And [ a; bi ] in
  Builder.mark_output b g1;
  Builder.mark_output b g2;
  let c = Builder.freeze b in
  let view = comb_view c in
  let scoap = Fst_testability.Scoap.compute view in
  let faults =
    [
      { Fault.site = Fault.Branch { node = g1; pin = 0 }; stuck = true };
      { Fault.site = Fault.Stem a; stuck = false };
    ]
  in
  Alcotest.(check bool) "same search as the oracle" true
    (agrees_with_oracle ~scoap view faults);
  match Podem.run ~scoap view ~faults with
  | Podem.Test assignment, _ ->
    Alcotest.(check bool) "excites a = 1, propagates through g2 (c = 0)"
      true
      (List.mem (a, V3.One) assignment && List.mem (ci, V3.Zero) assignment);
    Alcotest.(check bool) "b untouched" false (List.mem_assoc bi assignment)
  | (Podem.Untestable | Podem.Aborted), _ -> Alcotest.fail "expected a test"

(* y = AND(n, d) with n = NOT a, and the branch y.n s-a-0 as the only
   fault. With a = 0 the pin reads 0 against n's good 1: an effect that no
   net carries, so only the branch-faulted gate can enter the frontier.
   A second consumer of n keeps the branch a real fanout branch. *)
let test_branch_only_effect_matches_oracle () =
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let d = Builder.add_input ~name:"d" b in
  let n = Builder.add_gate ~name:"n" b Gate.Not [ a ] in
  let y = Builder.add_gate ~name:"y" b Gate.And [ n; d ] in
  let z = Builder.add_gate ~name:"z" b Gate.Buf [ n ] in
  Builder.mark_output b y;
  Builder.mark_output b z;
  let c = Builder.freeze b in
  let view = comb_view c in
  let scoap = Fst_testability.Scoap.compute view in
  let fault = { Fault.site = Fault.Branch { node = y; pin = 0 }; stuck = false } in
  Alcotest.(check bool) "same search as the oracle" true
    (agrees_with_oracle ~scoap view [ fault ]);
  match Podem.run ~scoap view ~faults:[ fault ] with
  | Podem.Test assignment, _ ->
    Alcotest.(check bool) "test detects" true
      (run_assignment_detects c fault assignment);
    Alcotest.(check bool) "side input d = 1" true
      (List.mem (d, V3.One) assignment)
  | (Podem.Untestable | Podem.Aborted), _ -> Alcotest.fail "expected a test"

(* Unrolled models with random controllable and observable flip-flop
   sets: every fault is multi-site, one site per frame. *)
let unrolled_models seed =
  let c = Helpers.small_seq_circuit ~gates:40 ~ffs:6 seed in
  let rng = Fst_gen.Rng.create (Int64.add seed 1L) in
  let ff_set () =
    let chosen = Array.make (Circuit.num_nets c) false in
    Array.iter (fun ff -> chosen.(ff) <- Fst_gen.Rng.bool rng) c.Circuit.dffs;
    fun ff -> chosen.(ff)
  in
  let controllable_ff = ff_set () in
  let observable_ff = ff_set () in
  ( c,
    List.map
      (fun frames ->
        Unroll.build c ~frames ~constraints:[] ~controllable_ff ~observable_ff)
      [ 1; 2; 3; 4 ] )

let prop_unrolled_matches_oracle =
  Q.Test.make ~name:"podem = oracle on unrolled models"
    ~count:4
    (Q.map Int64.of_int (Q.int_bound 1000000))
    (fun seed ->
      let c, models = unrolled_models seed in
      let faults = Fault.collapse c (Fault.universe c) in
      List.for_all
        (fun u ->
          let view = u.Unroll.view in
          let scoap = Fst_testability.Scoap.compute view in
          Array.for_all
            (fun f -> agrees_with_oracle ~scoap view (Unroll.map_fault u f))
            faults)
        models)

(* --- the incremental effect set ------------------------------------------ *)

(* Implication keeps the set of nets carrying a fault effect up to date,
   and detection reads that set. A random walk of assignments (binary
   values and un-assignments, as a search makes them) is replayed on
   comb views, scan-mode views (observation on flip-flop data pins) and
   unrolled models; after every step the set and the verdict must equal
   a scan of every net and every observation point. *)
let effects_match_scan view faults rng =
  let c = view.View.circuit in
  let e = Podem.Probe.create view ~faults in
  let effect n =
    let g = Podem.Probe.good e n and f = Podem.Probe.faulty e n in
    V3.is_binary g && V3.is_binary f && not (V3.equal g f)
  in
  (* what pin [pin] of [node] reads in the faulty machine: the stuck value
     of the last listed branch fault on it, else its net *)
  let pin_reads node pin =
    List.fold_left
      (fun acc (f : Fault.t) ->
        match f.Fault.site with
        | Fault.Branch b when b.node = node && b.pin = pin ->
          V3.of_bool f.Fault.stuck
        | Fault.Branch _ | Fault.Stem _ -> acc)
      (Podem.Probe.faulty e (Circuit.fanins c node).(pin))
      faults
  in
  let observed = function
    | View.Onet n -> effect n
    | View.Opin { node; pin } ->
      let g = Podem.Probe.good e (Circuit.fanins c node).(pin)
      and f = pin_reads node pin in
      V3.is_binary g && V3.is_binary f && not (V3.equal g f)
  in
  let agree () =
    let scanned =
      List.filter effect (List.init (Circuit.num_nets c) Fun.id)
    in
    List.sort Int.compare (Podem.Probe.effect_nets e) = scanned
    && Podem.Probe.detected e = Array.exists observed view.View.observe
  in
  let free = View.free_inputs view in
  Podem.Probe.imply e;
  let ok = ref (agree ()) in
  for _ = 1 to 40 do
    if !ok && Array.length free > 0 then begin
      let v = Fst_gen.Rng.pick rng [| V3.Zero; V3.One; V3.X |] in
      Podem.Probe.assign e (Fst_gen.Rng.pick rng free) v;
      Podem.Probe.imply e;
      ok := agree ()
    end
  done;
  !ok

let prop_effect_set_matches_scan =
  Q.Test.make ~name:"incremental effect set = full scan" ~count:20
    (Q.map Int64.of_int (Q.int_bound 1000000))
    (fun seed ->
      let rng = Fst_gen.Rng.create seed in
      let comb =
        comb_view (Helpers.random_comb_circuit rng ~inputs:6 ~gates:24)
      in
      let seq = Helpers.small_seq_circuit ~gates:40 ~ffs:6 seed in
      let scan_mode = View.scan_mode seq ~constraints:[] in
      let _, models = unrolled_models seed in
      let views =
        comb :: scan_mode :: List.map (fun u -> u.Unroll.view) models
      in
      List.for_all
        (fun view ->
          let c = view.View.circuit in
          let universe = Fault.universe c in
          List.for_all
            (fun faults -> effects_match_scan view faults rng)
            (List.init 6 (fun k ->
                 let f = Fst_gen.Rng.pick rng universe in
                 if k mod 2 = 0 then [ f ]
                 else [ f; Fst_gen.Rng.pick rng universe ])))
        views)

(* --- stop reasons -------------------------------------------------------- *)

(* Each run stops for one reason, and the reason agrees with the result:
   a test is [Found], a proof [Exhausted], every abort one of the rest.
   Two hand-built cases reach four reasons; with the unrolled models of a
   few seeds every reason is reached. *)
let test_stop_reasons () =
  let counts = Array.make (List.length Podem.all_stops) 0 in
  let record ?should_abort ?(backtrack_limit = 50) view faults =
    let r, st = Podem.run ~backtrack_limit ?should_abort view ~faults in
    let consistent =
      match (r, st.Podem.stop) with
      | Podem.Test _, Podem.Found | Podem.Untestable, Podem.Exhausted -> true
      | ( Podem.Aborted,
          ( Podem.Backtrack_limit | Podem.Dead_end | Podem.Frontier_prune
          | Podem.Abort_hook ) ) ->
        true
      | (Podem.Test _ | Podem.Untestable | Podem.Aborted), _ -> false
    in
    Alcotest.(check bool)
      ("reason matches result: " ^ Podem.stop_name st.Podem.stop)
      true consistent;
    let k = Podem.stop_index st.Podem.stop in
    counts.(k) <- counts.(k) + 1;
    st.Podem.stop
  in
  let expect what stop got =
    Alcotest.(check string) what (Podem.stop_name stop) (Podem.stop_name got)
  in
  (* y = OR(a, NOT a): y s-a-1 is redundant, so every search for it
     backtracks; the hook and a zero limit stop it first. *)
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let na = Builder.add_gate ~name:"na" b Gate.Not [ a ] in
  let y = Builder.add_gate ~name:"y" b Gate.Or [ a; na ] in
  Builder.mark_output b y;
  let redundant = comb_view (Builder.freeze b) in
  let sa1 = [ { Fault.site = Fault.Stem y; stuck = true } ] in
  expect "redundant" Podem.Exhausted (record redundant sa1);
  expect "zero limit" Podem.Backtrack_limit
    (record ~backtrack_limit:0 redundant sa1);
  expect "hook" Podem.Abort_hook
    (record ~should_abort:(fun () -> true) redundant sa1);
  (* y = AND(a, q) with q an uncontrollable flip-flop output: a s-a-0
     reaches the observed frontier gate y, whose side input has no
     justifiable value, so the frontier is pruned. *)
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let q = Builder.add_dff_placeholder ~name:"q" b in
  let y = Builder.add_gate ~name:"y" b Gate.And [ a; q ] in
  Builder.connect_dff b ~ff:q ~data:y;
  Builder.mark_output b y;
  let c = Builder.freeze b in
  expect "uncontrollable side input" Podem.Frontier_prune
    (record
       (View.make c ~free:[ a ] ~fixed:[] ~observe:[ View.Onet y ])
       [ { Fault.site = Fault.Stem a; stuck = false } ]);
  List.iter
    (fun seed ->
      let c, models = unrolled_models seed in
      let faults = Fault.collapse c (Fault.universe c) in
      List.iter
        (fun u ->
          Array.iter
            (fun f -> ignore (record u.Unroll.view (Unroll.map_fault u f)))
            faults)
        models)
    [ 1L; 2L; 3L ];
  List.iter
    (fun stop ->
      Alcotest.(check bool)
        (Podem.stop_name stop ^ " reached")
        true
        (counts.(Podem.stop_index stop) > 0))
    Podem.all_stops

let suite =
  [
    Alcotest.test_case "and gate test" `Quick test_and_gate_test;
    Alcotest.test_case "redundant fault untestable" `Quick test_redundant_fault_untestable;
    Alcotest.test_case "fixed input blocks test" `Quick test_fixed_input_blocks_test;
    Alcotest.test_case "branch fault test" `Quick test_branch_fault_test;
    Helpers.qcheck prop_podem_vs_brute_force;
    Alcotest.test_case "multi-site injection" `Quick test_multi_site;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Helpers.qcheck prop_comb_matches_oracle;
    Alcotest.test_case "masking branch = oracle" `Quick
      test_masking_branch_matches_oracle;
    Alcotest.test_case "branch-only effect = oracle" `Quick
      test_branch_only_effect_matches_oracle;
    Helpers.qcheck prop_unrolled_matches_oracle;
    Helpers.qcheck prop_effect_set_matches_scan;
    Alcotest.test_case "stop reasons" `Quick test_stop_reasons;
  ]
