open Fst_logic
open Fst_netlist
open Fst_tpi
open Fst_core
module Q = QCheck

let scan_small ?(gates = 150) ?(ffs = 10) seed =
  let c = Helpers.small_seq_circuit ~gates ~ffs seed in
  Tpi.insert ~options:{ Tpi.default_options with Tpi.chains = 2 } c

let test_capture_sequence_shape () =
  let scanned, config = scan_small 3L in
  let l = Sequences.max_chain_length config in
  let stim = Sequences.of_capture_test scanned config ~ff_values:[] ~pi_values:[] in
  Alcotest.(check int) "length = load + capture + unload" ((2 * l) + 2)
    (Array.length stim);
  (* Scan-enable is low exactly at the capture cycle. *)
  (match List.assoc_opt config.Scan.scan_mode stim.(l) with
   | Some V3.Zero -> ()
   | _ -> Alcotest.fail "capture cycle must drop scan-enable");
  match List.assoc_opt config.Scan.scan_mode stim.(l + 1) with
  | Some V3.One -> ()
  | _ -> Alcotest.fail "unload must re-enter scan mode"

let test_capture_loads_and_captures () =
  let scanned, config = scan_small 5L in
  let rng = Fst_gen.Rng.create 9L in
  let ff_values =
    Array.to_list scanned.Circuit.dffs
    |> List.map (fun ff -> (ff, V3.of_bool (Fst_gen.Rng.bool rng)))
  in
  let stim = Sequences.of_capture_test scanned config ~ff_values ~pi_values:[] in
  let l = Sequences.max_chain_length config in
  let st = Sim_oracle.create scanned in
  Array.iteri
    (fun t assigns ->
      List.iter (fun (n, v) -> Sim_oracle.set_input scanned st n v) assigns;
      Sim_oracle.eval_comb scanned st;
      if t = l then
        (* The loaded state is in place at the capture cycle. *)
        List.iter
          (fun (ff, v) ->
            Helpers.check_v3 "state loaded" v (Sim_oracle.value st ff))
          ff_values;
      Sim_oracle.clock scanned st)
    stim

(* End-to-end: chain test first, then the logic test; combined coverage is
   high and bookkeeping is consistent. *)
let prop_two_phase_coverage =
  Q.Test.make ~name:"chain test + scan test covers the circuit" ~count:4
    (Q.map Int64.of_int (Q.int_bound 100000))
    (fun seed ->
      let scanned, config = scan_small ~gates:120 ~ffs:8 seed in
      let flow =
        Flow.run ~config:Config.(default |> with_frames [ 1; 2 ]) scanned
          config
      in
      let already_detected = Flow.chain_detected_faults flow in
      let r = Scan_atpg.run scanned config ~already_detected in
      let total = Flow.total_faults flow in
      let cov =
        Scan_atpg.testable_coverage
          ~chain_detected:(List.length already_detected)
          ~result:r ~total
      in
      (* Bookkeeping. *)
      r.Scan_atpg.targeted = total - List.length already_detected
      && r.Scan_atpg.detected + r.Scan_atpg.untestable + r.Scan_atpg.undetected
         = r.Scan_atpg.targeted
      (* The whole point: nearly all testable faults are now covered
         (random synthetic logic at this size carries real redundancy,
         which the untestable bucket absorbs). *)
      && cov > 0.9)

let suite =
  [
    Alcotest.test_case "capture sequence shape" `Quick test_capture_sequence_shape;
    Alcotest.test_case "capture loads state" `Quick test_capture_loads_and_captures;
    Helpers.qcheck prop_two_phase_coverage;
  ]
