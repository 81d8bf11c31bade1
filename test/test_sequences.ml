open Fst_logic
open Fst_netlist
open Fst_tpi
open Fst_core
module Q = QCheck

let scan_small ?(gates = 120) ?(ffs = 8) ?(chains = 2) seed =
  let c = Helpers.small_seq_circuit ~gates ~ffs seed in
  Tpi.insert ~options:{ Tpi.default_options with Tpi.chains; justify_depth = 4 } c

let run_stim c stim =
  let st = Sim_oracle.create c in
  let trace = ref [] in
  Array.iter
    (fun assigns ->
      List.iter (fun (n, v) -> Sim_oracle.set_input c st n v) assigns;
      Sim_oracle.eval_comb c st;
      trace := Array.copy (Sim_oracle.values st) :: !trace;
      Sim_oracle.clock c st)
    stim;
  Array.of_list (List.rev !trace)

let test_alternating_shape () =
  let scanned, config = scan_small 1L in
  let stim = Sequences.alternating scanned config ~repeats:2 in
  let l = Sequences.max_chain_length config in
  Alcotest.(check int) "length" ((2 * l) + 4 + l) (Array.length stim);
  (* Cycle 0 carries the constraints. *)
  List.iter
    (fun (n, v) ->
      match List.assoc_opt n stim.(0) with
      | Some v' -> Helpers.check_v3 "constraint applied" v v'
      | None -> Alcotest.fail "missing constraint at cycle 0")
    config.Scan.constraints

let test_alternating_fills_chain () =
  let scanned, config = scan_small ~chains:1 2L in
  let stim = Sequences.alternating scanned config ~repeats:3 in
  let trace = run_stim scanned stim in
  let ch = config.Scan.chains.(0) in
  let len = Array.length ch.Scan.ffs in
  (* After at least one full period + chain length, every chain position is
     binary (the 0011 pattern marched through). *)
  let t = (3 * len) + 3 in
  Array.iteri
    (fun p ff ->
      Alcotest.(check bool)
        (Printf.sprintf "position %d binary at cycle %d" p t)
        true
        (V3.is_binary trace.(t).(ff)))
    ch.Scan.ffs

(* A combinational test realization loads exactly the requested flip-flop
   values at the apply cycle. *)
let prop_comb_test_loads_state =
  Q.Test.make ~name:"comb-test realization loads the requested state" ~count:15
    (Q.map Int64.of_int (Q.int_bound 1000000))
    (fun seed ->
      let scanned, config = scan_small ~chains:2 seed in
      let rng = Fst_gen.Rng.create (Int64.add seed 5L) in
      let ff_values =
        Array.to_list scanned.Circuit.dffs
        |> List.filter_map (fun ff ->
               if Fst_gen.Rng.bool rng then
                 Some (ff, V3.of_bool (Fst_gen.Rng.bool rng))
               else None)
      in
      let stim = Sequences.of_comb_test scanned config ~ff_values ~pi_values:[] in
      let trace = run_stim scanned stim in
      let l = Sequences.max_chain_length config in
      (* At the apply cycle (index l) the state is the loaded one. *)
      List.for_all
        (fun (ff, v) -> V3.equal trace.(l).(ff) v)
        ff_values)

let test_comb_test_pi_values_applied () =
  let scanned, config = scan_small ~chains:1 4L in
  let free =
    Array.to_list scanned.Circuit.inputs
    |> List.filter (fun i ->
           (not (List.mem_assoc i config.Scan.constraints))
           && not
                (Array.exists
                   (fun ch -> ch.Scan.scan_in = i)
                   config.Scan.chains))
  in
  match free with
  | [] -> () (* nothing to check on this seed *)
  | pi :: _ ->
    let stim =
      Sequences.of_comb_test scanned config ~ff_values:[]
        ~pi_values:[ (pi, V3.One) ]
    in
    let trace = run_stim scanned stim in
    let l = Sequences.max_chain_length config in
    Helpers.check_v3 "pi held at apply cycle" V3.One trace.(l).(pi)

(* Sequential-test realization: the initial controllable state is in place
   at the first frame cycle, and the per-frame input values are applied on
   their cycles. *)
let prop_seq_test_realization =
  Q.Test.make ~name:"seq-test realization places state and frames" ~count:10
    (Q.map Int64.of_int (Q.int_bound 1000000))
    (fun seed ->
      let scanned, config = scan_small ~chains:2 seed in
      let rng = Fst_gen.Rng.create (Int64.add seed 23L) in
      (* Controllable prefix: first half of each chain. *)
      let init_state =
        Array.to_list config.Scan.chains
        |> List.concat_map (fun ch ->
               let len = Array.length ch.Scan.ffs in
               List.init (len / 2) (fun p ->
                   (ch.Scan.ffs.(p), V3.of_bool (Fst_gen.Rng.bool rng))))
      in
      let free =
        Array.to_list scanned.Circuit.inputs
        |> List.filter (fun i -> not (List.mem_assoc i config.Scan.constraints))
      in
      let frames = 2 in
      let pi_frames =
        Array.init frames (fun _ ->
            List.filter_map
              (fun pi ->
                if Fst_gen.Rng.bool rng then
                  Some (pi, V3.of_bool (Fst_gen.Rng.bool rng))
                else None)
              free)
      in
      let test = { Fst_atpg.Seq.frames; init_state; pi_frames } in
      let stim = Sequences.of_seq_test scanned config test in
      let trace = run_stim scanned stim in
      let l = Sequences.max_chain_length config in
      let state_ok =
        List.for_all (fun (ff, v) -> V3.equal trace.(l).(ff) v) init_state
      in
      let frames_ok =
        List.for_all
          (fun f ->
            List.for_all
              (fun (pi, v) -> V3.equal trace.(l + f).(pi) v)
              pi_frames.(f))
          [ 0; 1 ]
      in
      state_ok && frames_ok)

let test_concat () =
  let a = [| [ (0, V3.One) ] |] and b = [| [ (1, V3.Zero) ]; [] |] in
  let c = Sequences.concat [ a; b ] in
  Alcotest.(check int) "length" 3 (Array.length c)

let suite =
  [
    Alcotest.test_case "alternating shape" `Quick test_alternating_shape;
    Alcotest.test_case "alternating fills chain" `Quick test_alternating_fills_chain;
    Helpers.qcheck prop_comb_test_loads_state;
    Alcotest.test_case "comb-test PI values applied" `Quick test_comb_test_pi_values_applied;
    Helpers.qcheck prop_seq_test_realization;
    Alcotest.test_case "concat" `Quick test_concat;
  ]
