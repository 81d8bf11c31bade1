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

(* The model [Unroll.build] replicates frame by frame is the circuit
   [Circuit.make] builds from the same node table: same nodes, names,
   fanout (in order), levels, inputs and flip-flops, and a topological
   order that is a permutation of the nets with every gate after its
   fanins. Random constraints and random controllable and observable
   flip-flops cover frame 0's unknown sources, constant inputs and
   partial capture buffers. *)
let prop_replicated_model_is_valid =
  Q.Test.make ~name:"replicated model = Circuit.make" ~count:40
    (Q.pair (Q.map Int64.of_int (Q.int_bound 100000)) (Q.int_range 1 8))
    (fun (seed, frames) ->
      let c = Helpers.small_seq_circuit ~gates:50 ~ffs:5 seed in
      let rng = Fst_gen.Rng.create (Int64.add seed 5L) in
      let constraints =
        List.filter_map
          (fun pi ->
            if Fst_gen.Rng.int rng 3 = 0 then
              Some (pi, V3.of_bool (Fst_gen.Rng.bool rng))
            else None)
          (Array.to_list c.Circuit.inputs)
      in
      let pick () =
        let set = Array.map (fun _ -> Fst_gen.Rng.bool rng) c.Circuit.nodes in
        fun ff -> set.(ff)
      in
      let u =
        Unroll.build c ~frames ~constraints ~controllable_ff:(pick ())
          ~observable_ff:(pick ())
      in
      let uc = u.Unroll.view.View.circuit in
      let made =
        Circuit.make ~name:uc.Circuit.name ~nodes:uc.Circuit.nodes
          ~net_names:uc.Circuit.net_names ~outputs:uc.Circuit.outputs
      in
      let n = Circuit.num_nets uc in
      let pos = Array.make n (-1) in
      Array.iteri (fun k i -> pos.(i) <- k) uc.Circuit.topo;
      let topological =
        Array.length uc.Circuit.topo = n
        && Array.for_all (fun p -> p >= 0) pos
        && Array.for_all
             (fun i ->
               Array.for_all (fun f -> pos.(f) < pos.(i))
                 (match uc.Circuit.nodes.(i) with
                  | Circuit.Gate (_, fi) -> fi
                  | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> [||]))
             uc.Circuit.topo
      in
      topological
      && uc.Circuit.nodes = made.Circuit.nodes
      && uc.Circuit.net_names = made.Circuit.net_names
      && uc.Circuit.fanout = made.Circuit.fanout
      && uc.Circuit.level = made.Circuit.level
      && uc.Circuit.inputs = made.Circuit.inputs
      && uc.Circuit.dffs = made.Circuit.dffs
      && uc.Circuit.outputs = made.Circuit.outputs)

let suite =
  [
    Helpers.qcheck prop_unroll_matches_sequential;
    Alcotest.test_case "uncontrollable state is X" `Quick test_uncontrollable_state_is_x;
    Alcotest.test_case "constrained pi becomes const" `Quick test_constrained_pi_becomes_const;
    Alcotest.test_case "capture buffers observed" `Quick test_capture_buffers_observed;
    Alcotest.test_case "fault mapping counts" `Quick test_fault_mapping_counts;
    Helpers.qcheck prop_replicated_model_is_valid;
  ]
