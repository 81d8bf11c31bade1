open Fst_logic
open Fst_netlist
open Fst_fault
open Fst_fsim
module Q = QCheck

(* si -> ff0 -> ff1 -> po shift pair with an AND gate in between. *)
let small_chain () =
  let b = Builder.create () in
  let si = Builder.add_input ~name:"si" b in
  let en = Builder.add_input ~name:"en" b in
  let ff0 = Builder.add_dff ~name:"ff0" b ~data:si in
  let g = Builder.add_gate ~name:"g" b Gate.And [ ff0; en ] in
  let ff1 = Builder.add_dff ~name:"ff1" b ~data:g in
  Builder.mark_output b ff1;
  (Builder.freeze b, si, en, ff0, g, ff1)

let alternating_stim si en cycles =
  Array.init cycles (fun t ->
      let base = if t = 0 then [ (en, V3.One) ] else [] in
      (si, V3.of_bool (t / 2 mod 2 = 1)) :: base)

let test_serial_detects_stuck_chain () =
  let c, si, en, ff0, _g, _ff1 = small_chain () in
  let stim = alternating_stim si en 12 in
  let fault = { Fault.site = Fault.Stem ff0; stuck = false } in
  (match Fsim.Serial.detect c ~fault ~observe:c.Circuit.outputs stim with
   | Some _ -> ()
   | None -> Alcotest.fail "stuck chain flip-flop not detected");
  (* en stuck at 1 is redundant under this stimulus: en is applied as 1. *)
  let fault2 = { Fault.site = Fault.Stem en; stuck = true } in
  (match Fsim.Serial.detect c ~fault:fault2 ~observe:c.Circuit.outputs stim with
   | None -> ()
   | Some _ -> Alcotest.fail "en s-a-1 cannot be seen when en is driven to 1")

let test_detection_requires_binary_good () =
  (* With the side input en left at X, the good machine output is X and
     nothing may be reported detected. *)
  let c, si, _en, _ff0, _g, _ff1 = small_chain () in
  let stim =
    Array.init 10 (fun t -> [ (si, V3.of_bool (t mod 2 = 0)) ])
  in
  let fault = { Fault.site = Fault.Stem si; stuck = true } in
  match Fsim.Serial.detect c ~fault ~observe:c.Circuit.outputs stim with
  | None -> ()
  | Some _ -> Alcotest.fail "detected through an unknown good value"

let test_branch_fault_detection () =
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let y1 = Builder.add_gate ~name:"y1" b Gate.Buf [ a ] in
  let y2 = Builder.add_gate ~name:"y2" b Gate.Not [ a ] in
  Builder.mark_output b y1;
  Builder.mark_output b y2;
  let c = Builder.freeze b in
  let fault = { Fault.site = Fault.Branch { node = y1; pin = 0 }; stuck = true } in
  let stim = [| [ (a, V3.Zero) ] |] in
  (* The branch fault flips y1 only; y2 stays correct. *)
  (match Fsim.Serial.detect c ~fault ~observe:[| y1 |] stim with
   | Some 0 -> ()
   | Some _ | None -> Alcotest.fail "branch fault must show at y1");
  match Fsim.Serial.detect c ~fault ~observe:[| y2 |] stim with
  | None -> ()
  | Some _ -> Alcotest.fail "branch fault must not show at y2"

(* Serial and parallel fault simulation agree on random circuits, random
   faults and random stimuli. *)
let prop_serial_parallel_agree =
  Q.Test.make ~name:"serial and parallel fault simulation agree" ~count:25
    (Q.map Int64.of_int (Q.int_bound 100000))
    (fun seed ->
      let c = Helpers.small_seq_circuit ~gates:60 ~ffs:6 seed in
      let rng = Fst_gen.Rng.create (Int64.add seed 7L) in
      let faults = Fault.universe c in
      let chosen =
        Array.init (min 100 (Array.length faults)) (fun _ ->
            Fst_gen.Rng.pick rng faults)
      in
      let cycles = 12 in
      let stim =
        Array.init cycles (fun _ ->
            Array.to_list c.Circuit.inputs
            |> List.map (fun pi ->
                   ( pi,
                     match Fst_gen.Rng.int rng 4 with
                     | 0 -> V3.X
                     | 1 -> V3.Zero
                     | _ -> V3.One )))
      in
      let par =
        Fsim.Parallel.detect_all c ~faults:chosen ~observe:c.Circuit.outputs
          stim
      in
      let ok = ref true in
      Array.iteri
        (fun i fault ->
          let ser =
            Fsim.Serial.detect c ~fault ~observe:c.Circuit.outputs stim
          in
          if ser <> par.(i) then ok := false)
        chosen;
      !ok)

(* One random workload reused by the engine-interface properties: up to
   [n] faults drawn from the universe, and three random stimulus blocks. *)
let random_workload ?(n = 100) seed =
  let c = Helpers.small_seq_circuit ~gates:60 ~ffs:6 seed in
  let rng = Fst_gen.Rng.create (Int64.add seed 7L) in
  let faults = Fault.universe c in
  let chosen =
    Array.init (min n (Array.length faults)) (fun _ ->
        Fst_gen.Rng.pick rng faults)
  in
  let block () =
    Array.init 12 (fun _ ->
        Array.to_list c.Circuit.inputs
        |> List.map (fun pi ->
               ( pi,
                 match Fst_gen.Rng.int rng 4 with
                 | 0 -> V3.X
                 | 1 -> V3.Zero
                 | _ -> V3.One )))
  in
  (c, chosen, List.init 3 (fun _ -> block ()))

(* The engine-interface workloads cover both dropping branches. Four
   faults over three blocks take the pattern-packed branch (on all but a
   few seeds, where the cones span most of the circuit); the default 100
   and a list longer than two groups (more than 2 x 62 faults) take the
   fault-grouped one. *)
let workloads seed =
  [ random_workload ~n:4 seed; random_workload seed;
    random_workload ~n:150 seed ]

(* Every implementation of the ENGINE semantics gives identical per-fault
   detection cycles and drop (block, cycle) pairs on both operations;
   [Serial] is the reference. *)
let prop_engines_agree =
  Q.Test.make ~name:"serial, bit-parallel and engine results agree" ~count:15
    (Q.map Int64.of_int (Q.int_bound 100000))
    (fun seed ->
      List.for_all
        (fun (c, faults, stimuli) ->
          let observe = c.Circuit.outputs in
          let stim = List.hd stimuli in
          let ser_all = Fsim.Serial.detect_all c ~faults ~observe stim in
          let ser_drop =
            Fsim.Serial.detect_dropping c ~faults ~observe ~stimuli
          in
          ser_all = Fsim.Parallel.detect_all c ~faults ~observe stim
          && ser_all = Fsim.Engine.detect_all c ~faults ~observe stim
          && ser_drop
             = Fsim.Parallel.detect_dropping c ~faults ~observe ~stimuli
          && ser_drop = Fsim.Engine.detect_dropping c ~faults ~observe ~stimuli)
        (workloads seed))

(* Cone soundness: under any fault, a net outside the fault's static
   fanout cone never diverges from the fault-free machine — the envelope
   that lets the bit-parallel groups read every out-of-cone net off the
   shared good trace. *)
let prop_cone_soundness =
  Q.Test.make ~name:"nets outside the static cone never diverge" ~count:15
    (Q.map Int64.of_int (Q.int_bound 100000))
    (fun seed ->
      let c, chosen, stimuli = random_workload seed in
      let all_nets = Array.init (Circuit.num_nets c) (fun i -> i) in
      let stim = List.hd stimuli in
      let good = Fsim.Serial.trace c ~fault:None ~observe:all_nets stim in
      Array.for_all
        (fun fault ->
          let cone = Fault.cone c fault in
          let in_cone = Array.make (Circuit.num_nets c) false in
          Array.iter (fun n -> in_cone.(n) <- true) cone;
          let bad =
            Fsim.Serial.trace c ~fault:(Some fault) ~observe:all_nets stim
          in
          let ok = ref true in
          Array.iteri
            (fun t row ->
              Array.iteri
                (fun n v ->
                  if (not in_cone.(n)) && not (V3.equal v bad.(t).(n)) then
                    ok := false)
                row)
            good;
          !ok)
        chosen)

(* Multicore dispatch is invisible: any [jobs] value gives the
   single-core result on both engine operations, on both dropping
   branches. *)
let prop_jobs_invariant =
  Q.Test.make ~name:"engine jobs>1 agrees with jobs=1" ~count:15
    (Q.pair
       (Q.map Int64.of_int (Q.int_bound 100000))
       (Q.int_range 2 6))
    (fun (seed, jobs) ->
      List.for_all
        (fun (c, faults, stimuli) ->
          let observe = c.Circuit.outputs in
          let stim = List.hd stimuli in
          Fsim.Engine.detect_all ~jobs:1 c ~faults ~observe stim
          = Fsim.Engine.detect_all ~jobs c ~faults ~observe stim
          && Fsim.Engine.detect_dropping ~jobs:1 c ~faults ~observe ~stimuli
             = Fsim.Engine.detect_dropping ~jobs c ~faults ~observe ~stimuli)
        (workloads seed))

(* The pattern-parallel packed dropping path (lanes = stimulus blocks)
   returns exactly the serial block-scan answer: the lowest detecting
   block and its first cycle, per fault. *)
let prop_packed_dropping_agrees =
  Q.Test.make ~name:"pattern-packed dropping agrees with serial" ~count:15
    (Q.map Int64.of_int (Q.int_bound 100000))
    (fun seed ->
      let c, chosen, stimuli = random_workload seed in
      let observe = c.Circuit.outputs in
      Fsim.Serial.detect_dropping c ~faults:chosen ~observe ~stimuli
      = Fsim.Parallel.detect_dropping_packed c ~faults:chosen ~observe
          ~stimuli)

let test_detect_dropping_blocks () =
  let c, si, en, ff0, _g, _ff1 = small_chain () in
  let faults =
    [|
      { Fault.site = Fault.Stem ff0; stuck = false };
      { Fault.site = Fault.Stem si; stuck = true };
    |]
  in
  let blank = Array.init 6 (fun _ -> [ (si, V3.X) ]) in
  let active = alternating_stim si en 12 in
  let out =
    Fsim.Parallel.detect_dropping c ~faults ~observe:c.Circuit.outputs
      ~stimuli:[ blank; active ]
  in
  (match out.(0) with
   | Some (1, _) -> ()
   | Some (b, _) -> Alcotest.failf "detected in wrong block %d" b
   | None -> Alcotest.fail "chain fault missed");
  match out.(1) with
  | Some (1, _) -> ()
  | Some _ | None -> Alcotest.fail "si stuck-at-1 should be caught in block 1"

let suite =
  [
    Alcotest.test_case "serial detects stuck chain" `Quick test_serial_detects_stuck_chain;
    Alcotest.test_case "no detection through X good" `Quick test_detection_requires_binary_good;
    Alcotest.test_case "branch fault locality" `Quick test_branch_fault_detection;
    Helpers.qcheck prop_serial_parallel_agree;
    Helpers.qcheck prop_engines_agree;
    Helpers.qcheck prop_cone_soundness;
    Helpers.qcheck prop_jobs_invariant;
    Helpers.qcheck prop_packed_dropping_agrees;
    Alcotest.test_case "dropping across blocks" `Quick test_detect_dropping_blocks;
  ]
