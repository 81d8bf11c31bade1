(* Chain failure diagnosis: the flow of this library tells you the chain
   test *failed*; this example shows the follow-up — locating the broken
   segment from the tester response alone.

   A defect is injected into a random chain flip-flop, the diagnostic
   session (shift rounds interleaved with functional captures) is applied,
   and the analytic chain model ranks (chain, segment, behaviour)
   hypotheses against the observed scan-out stream.

   Run with:  dune exec examples/chain_diagnosis.exe *)

open Fst_netlist
open Fst_fault
open Fst_tpi
open Fst_core

let profile =
  { Fst_gen.Gen.name = "dut"; gates = 600; ffs = 32; pis = 12; pos = 8; seed = 4242L }

let () =
  let circuit = Fst_gen.Gen.generate profile in
  let scanned, config =
    Tpi.insert ~options:{ Tpi.default_options with Tpi.chains = 2 } circuit
  in
  Format.printf "%a@.@." Circuit.pp_stats scanned;

  let rng = Fst_gen.Rng.create 9L in
  let trials = 8 in
  let hits = ref 0 in
  for trial = 1 to trials do
    let ch = config.Scan.chains.(Fst_gen.Rng.int rng (Array.length config.Scan.chains)) in
    let pos = Fst_gen.Rng.int rng (Array.length ch.Scan.ffs) in
    let stuck = Fst_gen.Rng.bool rng in
    let fault = { Fault.site = Fault.Stem ch.Scan.ffs.(pos); stuck } in
    Printf.printf "trial %d: injected %s (chain %d, position %d)\n" trial
      (Fault.to_string scanned fault)
      ch.Scan.index pos;
    (match Diagnose.diagnose_fault scanned config fault with
     | [] -> print_endline "  chain test passed?! (defect invisible)"
     | verdicts ->
       List.iteri
         (fun i v ->
           if i < 3 then
             Format.printf "  #%d %a@." (i + 1) Diagnose.pp_verdict v)
         verdicts;
       let top = List.hd verdicts in
       if
         top.Diagnose.hypothesis.Diagnose.chain = ch.Scan.index
         && abs (top.Diagnose.hypothesis.Diagnose.segment - pos) <= 1
       then begin
         incr hits;
         print_endline "  -> located"
       end
       else print_endline "  -> top candidate off target");
    print_newline ()
  done;
  Printf.printf "located %d / %d injected chain defects (top candidate, +/-1 position)\n"
    !hits trials

