open Fst_logic
open Fst_netlist
open Fst_atpg
module Q = QCheck

(* The unrolled combinational model must agree with sequential simulation:
   for random initial states and per-frame inputs, every frame's nets match
   the sequential machine cycle by cycle. *)
let prop_unroll_matches_sequential =
  Q.Test.make ~name:"unrolled model matches sequential simulation" ~count:20
    (Q.pair (Q.map Int64.of_int (Q.int_bound 100000)) (Q.int_range 1 4))
    (fun (seed, frames) ->
      let c = Helpers.small_seq_circuit ~gates:50 ~ffs:5 seed in
      let u =
        Unroll.build c ~frames ~constraints:[]
          ~controllable_ff:(fun _ -> true)
          ~observable_ff:(fun _ -> true)
      in
      let rng = Fst_gen.Rng.create (Int64.add seed 3L) in
      let init =
        Array.map (fun ff -> (ff, V3.of_bool (Fst_gen.Rng.bool rng))) c.Circuit.dffs
      in
      let stim_frames =
        Array.init frames (fun _ ->
            Array.map
              (fun pi -> (pi, V3.of_bool (Fst_gen.Rng.bool rng)))
              c.Circuit.inputs)
      in
      (* Sequential reference. *)
      let st = Sim_oracle.create c in
      Array.iter (fun (ff, v) -> Sim_oracle.set_ff c st ff v) init;
      let seq_values = Array.make frames [||] in
      for f = 0 to frames - 1 do
        Array.iter (fun (pi, v) -> Sim_oracle.set_input c st pi v) stim_frames.(f);
        Sim_oracle.eval_comb c st;
        seq_values.(f) <- Array.copy (Sim_oracle.values st);
        Sim_oracle.clock c st
      done;
      (* Unrolled evaluation. *)
      let uc = u.Unroll.view.View.circuit in
      let ust = Sim_oracle.create uc in
      Array.iter
        (fun (ff, v) -> Sim_oracle.set_input uc ust u.Unroll.net_at.(0).(ff) v)
        init;
      for f = 0 to frames - 1 do
        Array.iter
          (fun (pi, v) -> Sim_oracle.set_input uc ust u.Unroll.net_at.(f).(pi) v)
          stim_frames.(f)
      done;
      Sim_oracle.eval_comb uc ust;
      let ok = ref true in
      for f = 0 to frames - 1 do
        for net = 0 to Circuit.num_nets c - 1 do
          let expect = seq_values.(f).(net) in
          let got = Sim_oracle.value ust u.Unroll.net_at.(f).(net) in
          if not (V3.equal got expect) then ok := false
        done
      done;
      !ok)

let test_uncontrollable_state_is_x () =
  let c = Helpers.small_seq_circuit ~gates:30 ~ffs:4 5L in
  let u =
    Unroll.build c ~frames:2 ~constraints:[]
      ~controllable_ff:(fun _ -> false)
      ~observable_ff:(fun _ -> true)
  in
  let uc = u.Unroll.view.View.circuit in
  Array.iter
    (fun ff ->
      match Circuit.node uc u.Unroll.net_at.(0).(ff) with
      | Circuit.Const V3.X -> ()
      | _ -> Alcotest.fail "uncontrollable initial state must read X")
    c.Circuit.dffs;
  (* No frame-0 state inputs in the free set. *)
  Array.iter
    (fun net ->
      match Unroll.origin u net with
      | Unroll.State _ -> Alcotest.fail "state input for uncontrollable ff"
      | Unroll.Pi _ -> ())
    (View.free_inputs u.Unroll.view)

let test_constrained_pi_becomes_const () =
  let c = Helpers.small_seq_circuit ~gates:30 ~ffs:4 6L in
  let pi0 = c.Circuit.inputs.(0) in
  let u =
    Unroll.build c ~frames:2
      ~constraints:[ (pi0, V3.One) ]
      ~controllable_ff:(fun _ -> true)
      ~observable_ff:(fun _ -> true)
  in
  let uc = u.Unroll.view.View.circuit in
  for f = 0 to 1 do
    match Circuit.node uc u.Unroll.net_at.(f).(pi0) with
    | Circuit.Const V3.One -> ()
    | _ -> Alcotest.fail "constrained input must be a constant in every frame"
  done

let test_capture_buffers_observed () =
  let c = Helpers.small_seq_circuit ~gates:30 ~ffs:4 8L in
  let observable ff = ff = c.Circuit.dffs.(0) in
  let u =
    Unroll.build c ~frames:3 ~constraints:[]
      ~controllable_ff:(fun _ -> true)
      ~observable_ff:observable
  in
  let cap = u.Unroll.capture_of.(c.Circuit.dffs.(0)) in
  Alcotest.(check bool) "capture buffer exists" true (cap >= 0);
  let observed =
    Array.exists
      (function View.Onet n -> n = cap | View.Opin _ -> false)
      u.Unroll.view.View.observe;
  in
  Alcotest.(check bool) "capture buffer observed" true observed;
  Alcotest.(check int) "no capture for unobservable ffs" (-1)
    u.Unroll.capture_of.(c.Circuit.dffs.(1))

let test_fault_mapping_counts () =
  let c = Helpers.small_seq_circuit ~gates:30 ~ffs:4 9L in
  let frames = 3 in
  let u =
    Unroll.build c ~frames ~constraints:[]
      ~controllable_ff:(fun _ -> true)
      ~observable_ff:(fun _ -> true)
  in
  let stem = { Fst_fault.Fault.site = Fst_fault.Fault.Stem 0; stuck = true } in
  Alcotest.(check int) "stem maps to one site per frame" frames
    (List.length (Unroll.map_fault u stem))

let suite =
  [
    Helpers.qcheck prop_unroll_matches_sequential;
    Alcotest.test_case "uncontrollable state is X" `Quick test_uncontrollable_state_is_x;
    Alcotest.test_case "constrained pi becomes const" `Quick test_constrained_pi_becomes_const;
    Alcotest.test_case "capture buffers observed" `Quick test_capture_buffers_observed;
    Alcotest.test_case "fault mapping counts" `Quick test_fault_mapping_counts;
  ]
