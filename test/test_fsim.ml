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
        Fsim.Engine.detect_all ~jobs:1 c ~faults:chosen
          ~observe:c.Circuit.outputs stim
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

(* A random stimulus block over [c]'s inputs, 12 cycles by default, X on
   a quarter of the values. *)
let random_block ?(cycles = 12) rng (c : Circuit.t) =
  Array.init cycles (fun _ ->
      Array.to_list c.Circuit.inputs
      |> List.map (fun pi ->
             ( pi,
               match Fst_gen.Rng.int rng 4 with
               | 0 -> V3.X
               | 1 -> V3.Zero
               | _ -> V3.One )))

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
  (c, chosen, List.init 3 (fun _ -> random_block rng c))

(* The engine-interface workloads: over three blocks a pass holds 20
   faults, so four faults take one pass, the default 100 five passes and
   150 (more than two lists of 62) eight. *)
let workloads seed =
  [ random_workload ~n:4 seed; random_workload seed;
    random_workload ~n:150 seed ]

(* The engine gives [Serial]'s per-fault detection cycles and drop
   (block, cycle) pairs on both operations. *)
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
          ser_all = Fsim.Engine.detect_all c ~faults ~observe stim
          && ser_drop = Fsim.Engine.detect_dropping c ~faults ~observe ~stimuli)
        (workloads seed))

(* The static fanout cone of [fault], in slots of [cc]. *)
let cone_of cc fault =
  Fst_sim.Compiled.cone_slots cc
    ~seeds:[| cc.Fst_sim.Compiled.perm.(Fault.seed fault) |]

(* Cone soundness: under any fault, a net outside the fault's static
   fanout cone never diverges from the fault-free machine — the envelope
   that lets the bit-parallel passes read every out-of-cone net off the
   shared good trace. *)
let prop_cone_soundness =
  Q.Test.make ~name:"nets outside the static cone never diverge" ~count:15
    (Q.map Int64.of_int (Q.int_bound 100000))
    (fun seed ->
      let c, chosen, stimuli = random_workload seed in
      let all_nets = Array.init (Circuit.num_nets c) (fun i -> i) in
      let stim = List.hd stimuli in
      let good = Fsim.Serial.trace c ~fault:None ~observe:all_nets stim in
      let cc = Fst_sim.Compiled.of_circuit c in
      Array.for_all
        (fun fault ->
          let cone = cone_of cc fault in
          let in_cone = Array.make (Circuit.num_nets c) false in
          Array.iter
            (fun s -> in_cone.(cc.Fst_sim.Compiled.net_of.(s)) <- true)
            cone;
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
   single-core result on both engine operations. *)
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

(* Dropping returns exactly the serial block-scan answer: the lowest
   detecting block and its first cycle, per fault. *)
let prop_packed_dropping_agrees =
  Q.Test.make ~name:"pattern-packed dropping agrees with serial" ~count:15
    (Q.map Int64.of_int (Q.int_bound 100000))
    (fun seed ->
      let c, chosen, stimuli = random_workload seed in
      let observe = c.Circuit.outputs in
      Fsim.Serial.detect_dropping c ~faults:chosen ~observe ~stimuli
      = Fsim.Engine.detect_dropping c ~faults:chosen ~observe ~stimuli)

(* Every lane width: a call over [nb] blocks packs chunks of [k = min 62
   (blocks left)] blocks and runs [62 / k] faults a pass, so the block
   counts below cover one fault a pass (62), two (31, 2), one fault over
   fewer than 62 lanes (32, 61), 62 faults (1), a one-block tail chunk
   (63, 125), an empty block and no block at all. 130 faults make every
   width take more than one pass; blocks of 1 to 16 cycles end at
   different cycles of a pass, whose lanes must stop at their block's
   end. The engine gives the serial answer at one
   and two jobs. *)
let test_dropping_every_width () =
  let c = Helpers.small_seq_circuit ~gates:60 ~ffs:6 2L in
  let rng = Fst_gen.Rng.create 9L in
  let universe = Fault.universe c in
  let faults = Array.init 130 (fun _ -> Fst_gen.Rng.pick rng universe) in
  let observe = c.Circuit.outputs in
  List.iter
    (fun (name, stimuli) ->
      let serial = Fsim.Serial.detect_dropping c ~faults ~observe ~stimuli in
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "engine -j %d = serial over %s" jobs name)
            true
            (Fsim.Engine.detect_dropping ~jobs c ~faults ~observe ~stimuli
             = serial))
        [ 1; 2 ])
    (("no block", []) :: ("an empty block", [ [||] ])
    :: List.map
         (fun nb ->
           ( Printf.sprintf "%d blocks" nb,
             List.init nb (fun _ ->
                 random_block ~cycles:(1 + Fst_gen.Rng.int rng 16) rng c) ))
         [ 1; 2; 31; 32; 61; 62; 63; 125 ])

(* The engine's context runs the passes of a call one after another,
   each over the previous pass's fault-site masks, queue and carried
   flip-flops, and then the passes of the next call on the same circuit.
   The fault list is built in three groups with different cones, the
   middle one carrying fault sites where they are hardest: 62 faults
   whose cone seeds are level-0 stems (group 1), then 62 faults on a
   random multi-input gate [g0] and on the first and last gates of its
   cone — stem and branch faults of both polarities, [g0]'s repeated
   over several lanes — so the cone starts and ends with a masked gate
   (group 2), then faults seeded past that cone (group 3). *)
let override_workload seed =
  let c = Helpers.small_seq_circuit ~gates:60 ~ffs:6 seed in
  let cc = Fst_sim.Compiled.of_circuit c in
  let rng = Fst_gen.Rng.create (Int64.add seed 11L) in
  let slot f = cc.Fst_sim.Compiled.perm.(Fault.seed f) in
  let gate_pins n =
    match c.Circuit.nodes.(n) with
    | Circuit.Gate (_, fi) -> Array.length fi
    | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> 0
  in
  let multi =
    Array.of_list
      (List.filter
         (fun n -> gate_pins n >= 2)
         (List.init (Circuit.num_nets c) (fun n -> n)))
  in
  let g0 = Fst_gen.Rng.pick rng multi in
  let cone_gates =
    List.filter
      (fun s -> Fst_sim.Compiled.slot_gate cc s >= 0)
      (Array.to_list
         (Fst_sim.Compiled.cone_slots cc
            ~seeds:[| cc.Fst_sim.Compiled.perm.(g0) |]))
  in
  let net_of s = cc.Fst_sim.Compiled.net_of.(s) in
  let first = net_of (List.hd cone_gates)
  and last = net_of (List.nth cone_gates (List.length cone_gates - 1)) in
  let on_gate n =
    List.concat_map
      (fun stuck ->
        { Fault.site = Fault.Stem n; stuck }
        :: List.init (gate_pins n) (fun pin ->
               { Fault.site = Fault.Branch { node = n; pin }; stuck }))
      [ false; true ]
  in
  let cycle_to k l = Array.init k (fun i -> List.nth l (i mod List.length l)) in
  let specials =
    Array.append
      (Array.of_list (on_gate first @ on_gate last))
      (cycle_to 62 (on_gate g0))
  in
  let specials = Array.sub specials 0 62 in
  let universe = Fault.universe c in
  let stems0 =
    List.filter
      (fun f ->
        Fst_sim.Compiled.slot_gate cc (slot f) < 0
        && match f.Fault.site with Fault.Stem _ -> true | Fault.Branch _ -> false)
      (Array.to_list universe)
  in
  let above =
    List.filter (fun f -> slot f > slot (List.hd (on_gate last)))
      (Array.to_list universe)
  in
  let groups =
    [ cycle_to 62 stems0; specials;
      Array.of_list (List.filteri (fun i _ -> i < 40) above) ]
  in
  (c, groups, List.init 3 (fun _ -> random_block rng c))

(* Every call must give the [Serial] answer: the whole list, one call
   per group, and one call per fault, with [detect_all] and
   [detect_dropping] calls interleaved on circuit A, then B, then A
   again (a new circuit replaces the idle contexts). One block runs 62
   faults a pass, three blocks 20, and a one-fault call one. *)
let prop_ctx_reuse_across_groups =
  Q.Test.make ~name:"one context over consecutive override groups" ~count:12
    (Q.map Int64.of_int (Q.int_bound 100000))
    (fun seed ->
      let agrees (c, groups, stimuli) =
        let faults = Array.concat groups in
        let observe = c.Circuit.outputs in
        let stim = List.hd stimuli and one_block = [ List.hd stimuli ] in
        let per_group f = Array.concat (List.map f groups) in
        let all = Fsim.Serial.detect_all c ~faults ~observe stim in
        let grouped =
          Fsim.Serial.detect_dropping c ~faults ~observe ~stimuli:one_block
        in
        let packed = Fsim.Serial.detect_dropping c ~faults ~observe ~stimuli in
        all = Fsim.Engine.detect_all c ~faults ~observe stim
        && grouped
           = Fsim.Engine.detect_dropping c ~faults ~observe ~stimuli:one_block
        && (all, grouped)
           = ( per_group (fun faults ->
                   Fsim.Engine.detect_all c ~faults ~observe stim),
               per_group (fun faults ->
                   Fsim.Engine.detect_dropping c ~faults ~observe
                     ~stimuli:one_block) )
        && packed = Fsim.Engine.detect_dropping c ~faults ~observe ~stimuli
        && packed
           = Array.map
               (fun f ->
                 (Fsim.Engine.detect_dropping c ~faults:[| f |] ~observe
                    ~stimuli).(0))
               faults
      in
      let a = override_workload seed
      and b = override_workload (Int64.add seed 1L) in
      List.for_all agrees [ a; b; a ])

(* An engine call that raises midway through a pass (a branch fault on a
   primary input, which has no pins) must not leave that pass's fault
   sites to the next call: with a site left on [ff0], [g] would read a
   stale [ff0] instead of the good trace. *)
let test_raising_call_leaves_no_group () =
  let c, si, en, _ff0, _g, _ff1 = small_chain () in
  let observe = c.Circuit.outputs in
  let bogus = { Fault.site = Fault.Branch { node = si; pin = 0 }; stuck = true } in
  (match
     Fsim.Engine.detect_all c ~faults:[| bogus |] ~observe
       (alternating_stim si en 4)
   with
   | _ -> Alcotest.fail "a branch fault on a primary input must raise"
   | exception Invalid_argument _ -> ());
  let stim =
    Array.init 10 (fun t -> [ (si, V3.of_bool (t mod 2 = 0)); (en, V3.Zero) ])
  in
  let fault = { Fault.site = Fault.Stem en; stuck = true } in
  Alcotest.(check (array (option int)))
    "en s-a-1 after the raising call"
    (Fsim.Serial.detect_all c ~faults:[| fault |] ~observe stim)
    (Fsim.Engine.detect_all c ~faults:[| fault |] ~observe stim)

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
    Fsim.Engine.detect_dropping c ~faults ~observe:c.Circuit.outputs
      ~stimuli:[ blank; active ]
  in
  (match out.(0) with
   | Some (1, _) -> ()
   | Some (b, _) -> Alcotest.failf "detected in wrong block %d" b
   | None -> Alcotest.fail "chain fault missed");
  match out.(1) with
  | Some (1, _) -> ()
  | Some _ | None -> Alcotest.fail "si stuck-at-1 should be caught in block 1"

(* On every suite circuit at a small scale the engine gives the
   [Serial] answer to one group of collapsed faults over a step-2-shaped
   workload: the alternating chain test plus random scan-mode blocks,
   simulated with cross-block dropping. *)
let test_suite_step2_agrees () =
  List.iter
    (fun (e : Fst_gen.Suite.entry) ->
      let name = e.Fst_gen.Suite.profile.Fst_gen.Gen.name in
      match
        Fst_tpi.Tpi.insert_checked ~chains:e.Fst_gen.Suite.chains
          (Fst_gen.Gen.generate e.Fst_gen.Suite.profile)
      with
      | Error _ -> Alcotest.failf "%s: scan insertion failed" name
      | Ok (scanned, config) ->
        let faults = Fault.collapse scanned (Fault.universe scanned) in
        let faults =
          Array.sub faults 0 (min (Array.length faults) Fsim.Engine.max_group)
        in
        let view =
          View.scan_mode scanned
            ~constraints:config.Fst_tpi.Scan.constraints
        in
        let rng = Fst_gen.Rng.create 0xBE5CL in
        let random_block () =
          let ff_values, pi_values =
            List.partition
              (fun (net, _) -> Circuit.is_dff scanned net)
              (Fst_atpg.Rtpg.uniform rng view)
          in
          Fst_core.Sequences.of_comb_test scanned config ~ff_values ~pi_values
        in
        let stimuli =
          Fst_core.Sequences.alternating scanned config ~repeats:2
          :: List.init 8 (fun _ -> random_block ())
        in
        let observe = scanned.Circuit.outputs in
        Alcotest.(check bool)
          (name ^ ": engine = serial")
          true
          (Fsim.Engine.detect_dropping scanned ~faults ~observe ~stimuli
           = Fsim.Serial.detect_dropping scanned ~faults ~observe ~stimuli))
    (Fst_gen.Suite.suite ~scale:0.02 ())

(* Reconvergence: a lane whose faulty machine differs from the good one
   at cycle [t] and is back in sync at [t + 1] reads the good machine's
   values again — no flip-flop keeps its stale faulty planes, and none
   loses them between two slices of a packed trace. Long blocks (past
   four 32-cycle slices) with few X values let fault effects enter the
   flip-flops, wash out and come back many times. Dropping over three
   blocks (20 faults a pass), [detect_all] and dropping over one block
   (40 faults a pass) must each give the [Serial] answer. *)
let prop_reconvergence =
  Q.Test.make ~name:"a lane back in sync reads good values again" ~count:12
    (Q.map Int64.of_int (Q.int_bound 100000))
    (fun seed ->
      let c = Helpers.small_seq_circuit ~gates:60 ~ffs:8 seed in
      let rng = Fst_gen.Rng.create (Int64.add seed 13L) in
      let universe = Fault.universe c in
      let faults =
        Array.init (min 40 (Array.length universe)) (fun _ ->
            Fst_gen.Rng.pick rng universe)
      in
      let block cycles =
        Array.init cycles (fun _ ->
            Array.to_list c.Circuit.inputs
            |> List.map (fun pi ->
                   ( pi,
                     match Fst_gen.Rng.int rng 8 with
                     | 0 -> V3.X
                     | k -> V3.of_bool (k land 1 = 1) )))
      in
      let stimuli = [ block 150; block 140; block 100 ] in
      let observe = c.Circuit.outputs in
      let long = List.hd stimuli in
      Fsim.Serial.detect_dropping c ~faults ~observe ~stimuli
      = Fsim.Engine.detect_dropping c ~faults ~observe ~stimuli
      && Fsim.Serial.detect_all c ~faults ~observe long
         = Fsim.Engine.detect_all c ~faults ~observe long
      && Fsim.Serial.detect_dropping c ~faults ~observe ~stimuli:[ long ]
         = Fsim.Engine.detect_dropping c ~faults ~observe ~stimuli:[ long ])

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
    Helpers.qcheck prop_ctx_reuse_across_groups;
    Alcotest.test_case "a raising call leaves no group behind" `Quick
      test_raising_call_leaves_no_group;
    Alcotest.test_case "dropping across blocks" `Quick test_detect_dropping_blocks;
    Alcotest.test_case "dropping at every lane width" `Quick
      test_dropping_every_width;
    Alcotest.test_case "engine = serial on suite step-2 workloads" `Quick
      test_suite_step2_agrees;
    Helpers.qcheck prop_reconvergence;
  ]
