open Fst_logic
open Fst_netlist
open Fst_fault
open Fst_fsim
open Fst_atpg
open Fst_tpi

type result = {
  targeted : int;
  detected : int;
  untestable : int;
  undetected : int;
  vectors : int;
}

(* Functional-mode view: scan-enable pinned low, every other input and the
   loadable state free, primary outputs plus flip-flop data pins (the
   captured response) observable. *)
let functional_view (scanned : Circuit.t) (config : Scan.config) =
  View.scan_mode scanned ~constraints:[ (config.Scan.scan_mode, V3.Zero) ] ()

(* PODEM backtrack limit, and the seeded random capture blocks appended
   after the deterministic tests. *)
let backtrack = 200
let random_blocks = 32
let random_seed = 0xCAFEL

let run scanned config ~already_detected =
  let universe = Fault.collapse scanned (Fault.universe scanned) in
  let done_set = Hashtbl.create (2 * List.length already_detected) in
  List.iter (fun f -> Hashtbl.replace done_set f ()) already_detected;
  let targets =
    Array.to_list universe
    |> List.filter (fun f -> not (Hashtbl.mem done_set f))
    |> Array.of_list
  in
  let view = functional_view scanned config in
  let scoap = Fst_testability.Scoap.compute view in
  let capture_block assignment =
    let ff_values, pi_values =
      List.partition (fun (net, _) -> Circuit.is_dff scanned net) assignment
    in
    Sequences.of_capture_test scanned config ~ff_values ~pi_values
  in
  let proven = Array.make (Array.length targets) false in
  let tests =
    List.concat
      (List.mapi
         (fun i fault ->
           match
             Podem.run ~backtrack_limit:backtrack ~scoap view ~faults:[ fault ]
           with
           | Podem.Test assignment, _ -> [ capture_block assignment ]
           | Podem.Untestable, _ ->
             proven.(i) <- true;
             []
           | Podem.Aborted, _ -> [])
         (Array.to_list targets))
  in
  let rng = Fst_gen.Rng.create random_seed in
  let blocks =
    tests
    @ List.init random_blocks (fun _ -> capture_block (Rtpg.uniform rng view))
  in
  let outcome =
    Fsim.Engine.detect_dropping scanned ~faults:targets
      ~observe:scanned.Circuit.outputs ~stimuli:blocks
  in
  (* A capture-model-untestable fault can still fall to the load or unload
     portion of another sequence; simulation wins. *)
  let detected = ref 0 and untestable = ref 0 in
  Array.iteri
    (fun i o ->
      match o with
      | Some _ -> incr detected
      | None -> if proven.(i) then incr untestable)
    outcome;
  {
    targeted = Array.length targets;
    detected = !detected;
    untestable = !untestable;
    undetected = Array.length targets - !detected - !untestable;
    vectors = List.length blocks;
  }

let coverage ~chain_detected ~result ~total =
  if total = 0 then 1.0
  else float_of_int (chain_detected + result.detected) /. float_of_int total

let testable_coverage ~chain_detected ~result ~total =
  let testable = total - result.untestable in
  if testable <= 0 then 1.0
  else float_of_int (chain_detected + result.detected) /. float_of_int testable
