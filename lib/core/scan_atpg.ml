open Fst_logic
open Fst_netlist
open Fst_fault
open Fst_fsim
open Fst_atpg
open Fst_tpi
module Clock = Fst_exec.Clock
module Retry = Fst_exec.Retry
module Sink = Fst_obs.Sink
module Json = Fst_obs.Json

type result = {
  targeted : int;
  detected : int;
  untestable : int;
  undetected : int;
  aborted : int;
  failed : int;
  vectors : int;
  seconds : float;
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

let run ?(config = Config.default) ?(deadline = Clock.never) scanned
    scan_config ~already_detected =
  let jobs = config.Config.jobs in
  let on_error = config.Config.on_error in
  let sink = config.Config.sink in
  let config = scan_config in
  Sink.span sink ~name:"scan-atpg" ~cat:"phase" @@ fun () ->
  let t0 = Clock.now () in
  let universe = Fault.collapse scanned (Fault.universe scanned) in
  let done_set = Hashtbl.create (2 * List.length already_detected) in
  List.iter (fun f -> Hashtbl.replace done_set f ()) already_detected;
  let targets =
    Array.to_list universe
    |> List.filter (fun f -> not (Hashtbl.mem done_set f))
    |> Array.of_list
  in
  let n = Array.length targets in
  let view = functional_view scanned config in
  let scoap = Fst_testability.Scoap.compute view in
  let keep_going = on_error = `Keep_going in
  let blocks = ref [] in
  let proven = Array.make n false in
  let denied = Array.make n false in
  let failed = Array.make n false in
  let n_failed = ref 0 in
  let i = ref 0 in
  while !i < n && not (Clock.expired deadline) do
    (try
       match
         Podem.run ~backtrack_limit:backtrack
           ~should_abort:(fun () -> Clock.expired deadline)
           ~scoap view ~faults:[ targets.(!i) ]
       with
       | Podem.Test assignment, _ ->
         let ff_values, pi_values =
           List.partition
             (fun (net, _) -> Circuit.is_dff scanned net)
             assignment
         in
         blocks :=
           Sequences.of_capture_test scanned config ~ff_values ~pi_values
           :: !blocks
       | Podem.Untestable, _ -> proven.(!i) <- true
       | Podem.Aborted, _ -> if Clock.expired deadline then denied.(!i) <- true
     with e when keep_going ->
       (* Isolated: the fault keeps its chance at detection through the
          other sequences; only a still-undetected fault lands in the
          failed bucket. *)
       failed.(!i) <- true;
       incr n_failed;
       Sink.event sink ~kind:"fault_failed"
         [
           ("phase", Json.String "scan-atpg");
           ("fault", Json.Int !i);
           ("error", Json.String (Printexc.to_string e));
         ]);
    if sink.Sink.enabled then
      Sink.tick sink ~phase:"scan-atpg" ~done_:(!i + 1) ~total:n
        ~detected:(List.length !blocks) ~failed:!n_failed
        ~budget_left:(Clock.remaining deadline) ();
    incr i
  done;
  for k = !i to n - 1 do
    denied.(k) <- true
  done;
  let rng = Fst_gen.Rng.create random_seed in
  let random_block () =
    let ff_values, pi_values =
      List.partition
        (fun (net, _) -> Circuit.is_dff scanned net)
        (Rtpg.uniform rng view)
    in
    Sequences.of_capture_test scanned config ~ff_values ~pi_values
  in
  let blocks =
    List.rev !blocks @ List.init random_blocks (fun _ -> random_block ())
  in
  let engine_failed = ref false in
  let outcome =
    let simulate () =
      Fsim.Engine.detect_dropping ~obs:sink ~jobs scanned
        ~faults:targets ~observe:scanned.Circuit.outputs ~stimuli:blocks
    in
    if not keep_going then simulate ()
    else
      match Retry.run simulate with
      | Stdlib.Ok o -> o
      | Stdlib.Error (e, _bt) ->
        (* The simulator is the sole witness of detection, so its permanent
           failure makes every unproven fault's outcome unknowable: the
           whole cohort moves to the failed bucket. *)
        engine_failed := true;
        Sink.event sink ~kind:"engine_failed"
          [
            ("phase", Json.String "scan-atpg");
            ("error", Json.String (Printexc.to_string e));
          ];
        Array.make n None
  in
  let detected = ref 0
  and untestable = ref 0
  and aborted = ref 0
  and n_failed = ref 0 in
  Array.iteri
    (fun i o ->
      (* A capture-model-untestable fault can still fall to the load or
         unload portion of another sequence; simulation wins. A fault whose
         attempt the deadline denied counts as aborted only if nothing
         detected it anyway. *)
      match o with
      | Some _ -> incr detected
      | None ->
        if proven.(i) then incr untestable
        else if failed.(i) || !engine_failed then incr n_failed
        else if denied.(i) then incr aborted)
    outcome;
  {
    targeted = n;
    detected = !detected;
    untestable = !untestable;
    undetected = n - !detected - !untestable - !aborted - !n_failed;
    aborted = !aborted;
    failed = !n_failed;
    vectors = List.length blocks;
    seconds = Clock.now () -. t0;
  }

let coverage ~chain_detected ~result ~total =
  if total = 0 then 1.0
  else float_of_int (chain_detected + result.detected) /. float_of_int total

let testable_coverage ~chain_detected ~result ~total =
  let testable = total - result.untestable in
  if testable <= 0 then 1.0
  else float_of_int (chain_detected + result.detected) /. float_of_int testable
