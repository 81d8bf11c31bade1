(* Quickstart: the paper's Figure 2 in twenty lines.

   Builds a tiny sequential circuit, lets TPI establish a functional scan
   chain through its AND gate, and shows why the traditional alternating
   sequence is not enough: a stuck-at fault on the gate's side input
   changes the chain's behaviour in a way the 0011 pattern can miss, while
   the three-step flow finds a test for every such fault.

   Run with:  dune exec examples/quickstart.exe *)

open Fst_logic
open Fst_netlist
open Fst_tpi
open Fst_core

let build_circuit () =
  let b = Builder.create ~name:"figure2" () in
  let pi = Builder.add_input ~name:"pi" b in
  let ff0 = Builder.add_dff_placeholder ~name:"ff0" b in
  let ff1 = Builder.add_dff_placeholder ~name:"ff1" b in
  let ff2 = Builder.add_dff_placeholder ~name:"ff2" b in
  (* Functional logic between the flip-flops. *)
  let g0 = Builder.add_gate ~name:"g0" b Gate.And [ pi; ff0 ] in
  let g1 = Builder.add_gate ~name:"g1" b Gate.Nand [ g0; ff2 ] in
  let po = Builder.add_gate ~name:"po" b Gate.Not [ ff2 ] in
  Builder.connect_dff b ~ff:ff1 ~data:g0;
  Builder.connect_dff b ~ff:ff2 ~data:g1;
  Builder.connect_dff b ~ff:ff0 ~data:po;
  Builder.mark_output b po;
  Builder.freeze b

let () =
  let circuit = build_circuit () in
  Format.printf "Mission circuit:   %a@." Circuit.pp_stats circuit;

  (* Step 0: test point insertion establishes a functional scan chain. *)
  let scanned, config = Tpi.insert circuit in
  Format.printf "After TPI:         %a@." Circuit.pp_stats scanned;
  Format.printf "%a@." (Scan.pp_config scanned) config;
  (match Scan.verify_shift_msg scanned config with
   | Ok () -> print_endline "Scan chain shifts correctly in scan mode."
   | Error e -> failwith e);

  (* The complete functional scan chain testing flow. *)
  let r = Flow.run scanned config in
  let total = Flow.total_faults r in
  Printf.printf "\nFault universe: %d collapsed stuck-at faults\n" total;
  Printf.printf "  category 1 (alternating sequence catches them): %d\n"
    (Array.length r.Flow.classify.Classify.easy);
  Printf.printf "  category 2 (hard — may escape the alternating sequence): %d\n"
    (Array.length r.Flow.classify.Classify.hard);
  Printf.printf "  category 3 (chain untouched): %d\n"
    (total - r.Flow.classify.Classify.affecting);

  (* Every count is a count of verdicts: each hard fault has one. *)
  let count = Flow.count r in
  let detected2 = count Flow.Detected_step2
  and untestable2 = count Flow.Untestable_step2 in
  Printf.printf "\nStep 2 — combinational ATPG + sequential fault simulation:\n";
  Printf.printf "  %d detected, %d proven untestable, %d left for step 3\n"
    detected2 untestable2
    (Array.length r.Flow.verdicts - detected2 - untestable2
    - count Flow.Untestable_static);

  Printf.printf "Step 3 — sequential ATPG on chain-aware reduced models:\n";
  Printf.printf "  %d detected, %d proven untestable, %d undetected\n"
    (count Flow.Detected_step3) (count Flow.Untestable_step3)
    (count Flow.Undetected);

  let undetected = Flow.faults_with r Flow.Undetected in
  Printf.printf "\nFinal undetected chain-affecting faults: %d of %d (%.3f%%)\n"
    (List.length undetected)
    (Flow.affecting r)
    (100.0
    *. float_of_int (List.length undetected)
    /. float_of_int (max 1 (Flow.affecting r)));
  List.iter
    (fun f -> Printf.printf "  undetected: %s\n" (Fst_fault.Fault.to_string scanned f))
    undetected
