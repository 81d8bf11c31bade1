open Fst_logic
open Fst_netlist
open Fst_testability
module Q = QCheck

(* a, b -> AND y -> PO. *)
let and_view () =
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let b2 = Builder.add_input ~name:"b" b in
  let y = Builder.add_gate ~name:"y" b Gate.And [ a; b2 ] in
  Builder.mark_output b y;
  let c = Builder.freeze b in
  ( View.make c
      ~free:(Array.to_list c.Circuit.inputs)
      ~fixed:[]
      ~observe:[ View.Onet y ],
    a,
    b2,
    y )

let test_and_gate_measures () =
  let view, a, b2, y = and_view () in
  let m = Scoap.compute view in
  Alcotest.(check int) "cc0 input" 1 m.Scoap.cc0.(a);
  Alcotest.(check int) "cc1 input" 1 m.Scoap.cc1.(a);
  (* and output: cc1 = 1+1+1 = 3; cc0 = min(1,1)+1 = 2 *)
  Alcotest.(check int) "cc1 and" 3 m.Scoap.cc1.(y);
  Alcotest.(check int) "cc0 and" 2 m.Scoap.cc0.(y);
  Alcotest.(check int) "obs output" 0 m.Scoap.obs.(y);
  (* observing a requires b = 1: obs = 0 + cc1(b) + 1 = 2 *)
  Alcotest.(check int) "obs input" 2 m.Scoap.obs.(a);
  Alcotest.(check int) "obs other input" 2 m.Scoap.obs.(b2)

let test_fixed_net_infinite () =
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let k = Builder.add_input ~name:"k" b in
  let y = Builder.add_gate ~name:"y" b Gate.And [ a; k ] in
  Builder.mark_output b y;
  let c = Builder.freeze b in
  let view =
    View.make c ~free:[ a ] ~fixed:[ (k, V3.Zero) ] ~observe:[ View.Onet y ]
  in
  let m = Scoap.compute view in
  Alcotest.(check int) "fixed value free" 0 m.Scoap.cc0.(k);
  Alcotest.(check bool) "opposite infinite" true (m.Scoap.cc1.(k) >= Scoap.infinite);
  (* y can never be 1 because k is tied to 0. *)
  Alcotest.(check bool) "y cc1 infinite" true (m.Scoap.cc1.(y) >= Scoap.infinite);
  (* a is unobservable through the killed gate. *)
  Alcotest.(check bool) "a obs infinite" true (m.Scoap.obs.(a) >= Scoap.infinite)

let test_xor_parity_controllability () =
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let b2 = Builder.add_input ~name:"b" b in
  let y = Builder.add_gate ~name:"y" b Gate.Xor [ a; b2 ] in
  Builder.mark_output b y;
  let c = Builder.freeze b in
  let view =
    View.make c
      ~free:(Array.to_list c.Circuit.inputs)
      ~fixed:[] ~observe:[ View.Onet y ]
  in
  let m = Scoap.compute view in
  (* xor: both parities reachable, cost 2 inputs + 1. *)
  Alcotest.(check int) "xor cc0" 3 m.Scoap.cc0.(y);
  Alcotest.(check int) "xor cc1" 3 m.Scoap.cc1.(y)

(* Infinite controllability is a sound unachievability proof: whenever a
   value is actually reachable (exhaustive simulation), its cc is finite.
   The converse does not hold (reconvergent fanout can make a finite-cc
   value unachievable), so only this direction is checked. *)
let prop_cc_finite_iff_achievable =
  Q.Test.make ~name:"achievable values have finite cc" ~count:20
    (Q.map Int64.of_int (Q.int_bound 100000))
    (fun seed ->
      let rng = Fst_gen.Rng.create seed in
      let c = Helpers.random_comb_circuit rng ~inputs:4 ~gates:10 in
      let view =
        View.make c
          ~free:(Array.to_list c.Circuit.inputs)
          ~fixed:[]
          ~observe:(Array.to_list c.Circuit.outputs |> List.map (fun o -> View.Onet o))
      in
      let m = Scoap.compute view in
      let inputs = c.Circuit.inputs in
      let n = Array.length inputs in
      let achievable = Array.make (Circuit.num_nets c) (false, false) in
      for code = 0 to (1 lsl n) - 1 do
        let st = Sim_oracle.create c in
        Array.iteri
          (fun k pi ->
            Sim_oracle.set_input c st pi (V3.of_bool (code land (1 lsl k) <> 0)))
          inputs;
        Sim_oracle.eval_comb c st;
        for net = 0 to Circuit.num_nets c - 1 do
          let z, o = achievable.(net) in
          match Sim_oracle.value st net with
          | V3.Zero -> achievable.(net) <- (true, o)
          | V3.One -> achievable.(net) <- (z, true)
          | V3.X -> ()
        done
      done;
      let ok = ref true in
      for net = 0 to Circuit.num_nets c - 1 do
        let z, o = achievable.(net) in
        if z && m.Scoap.cc0.(net) >= Scoap.infinite then ok := false;
        if o && m.Scoap.cc1.(net) >= Scoap.infinite then ok := false
      done;
      !ok)

let test_scan_mode_view_roles () =
  let c, _, _, _, _ = Helpers.figure2_circuit () in
  let scanned, config =
    Fst_tpi.Tpi.insert ~options:{ Fst_tpi.Tpi.default_options with Fst_tpi.Tpi.chains = 1; justify_depth = 2 } c
  in
  let view =
    View.scan_mode scanned ~constraints:config.Fst_tpi.Scan.constraints
  in
  (* Flip-flop outputs are pseudo inputs. *)
  Array.iter
    (fun ff -> Alcotest.(check bool) "ff free" true view.View.free.(ff))
    scanned.Circuit.dffs;
  (* scan_mode is fixed to 1. *)
  let sm = config.Fst_tpi.Scan.scan_mode in
  (match view.View.fixed.(sm) with
   | Some V3.One -> ()
   | _ -> Alcotest.fail "scan_mode should be fixed to 1");
  (* Every flip-flop data pin is observed. *)
  let pins =
    Array.to_list view.View.observe
    |> List.filter_map (function
         | View.Opin { node; _ } -> Some node
         | View.Onet _ -> None)
    |> List.sort compare
  in
  Alcotest.(check (list int))
    "observed pins are the flip-flops"
    (Array.to_list scanned.Circuit.dffs |> List.sort compare)
    pins

let suite =
  [
    Alcotest.test_case "and gate measures" `Quick test_and_gate_measures;
    Alcotest.test_case "fixed nets are infinite" `Quick test_fixed_net_infinite;
    Alcotest.test_case "xor parity controllability" `Quick test_xor_parity_controllability;
    Helpers.qcheck prop_cc_finite_iff_achievable;
    Alcotest.test_case "scan-mode view roles" `Quick test_scan_mode_view_roles;
  ]
