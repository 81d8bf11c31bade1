open Fst_logic
open Fst_netlist
open Fst_fault
open Fst_atpg
open Fst_tpi
open Fst_core
module Q = QCheck

let scan_small ?(gates = 120) ?(ffs = 8) seed =
  let c = Helpers.small_seq_circuit ~gates ~ffs seed in
  Tpi.insert ~options:Tpi.default_options c

(* Sequential tests produced on the scan-mode model must be confirmed by
   fault simulation of their realized scan sequences. *)
let prop_seq_tests_are_real =
  Q.Test.make ~name:"sequential ATPG tests confirmed by fault simulation"
    ~count:8
    (Q.map Int64.of_int (Q.int_bound 1000000))
    (fun seed ->
      let scanned, config = scan_small seed in
      let faults =
        Fst_fault.Fault.collapse scanned (Fst_fault.Fault.universe scanned)
      in
      let cls = Classify.run scanned config faults in
      let positions = Hashtbl.create 16 in
      Array.iter
        (fun ch ->
          Array.iteri
            (fun pos ff -> Hashtbl.replace positions ff (ch.Scan.index, pos))
            ch.Scan.ffs)
        config.Scan.chains;
      let checked = ref 0 and confirmed = ref 0 in
      Array.iter
        (fun i ->
          if !checked < 6 then begin
            let info = cls.Classify.infos.(i) in
            let fault = info.Classify.fault in
            (* Chain-aware controllability/observability from the fault's
               locations, as the flow derives them. *)
            let fp =
              Group.footprint_of ~index:0
                ~locations:
                  (List.map (fun (ch, s, _) -> (ch, s)) info.Classify.locations)
            in
            let bounds = fp.Group.spans in
            let controllable ff =
              match Hashtbl.find_opt positions ff with
              | None -> false
              | Some (chain, pos) -> (
                match List.assoc_opt chain bounds with
                | None -> true
                | Some (m, _) -> pos < m)
            in
            let observable ff =
              match Hashtbl.find_opt positions ff with
              | None -> false
              | Some (chain, pos) -> (
                match List.assoc_opt chain bounds with
                | None -> true
                | Some (_, o) -> pos >= o)
            in
            match
              Seq.run scanned ~constraints:config.Scan.constraints
                ~controllable_ff:controllable ~observable_ff:observable ~fault
                ~frames_list:[ 1; 2; 4 ] ~backtrack_limit:300
            with
            | Seq.Seq_test test, _ ->
              incr checked;
              let stim = Sequences.of_seq_test scanned config test in
              (match
                 Fst_fsim.Fsim.Serial.detect scanned ~fault
                   ~observe:scanned.Circuit.outputs stim
               with
               | Some _ -> incr confirmed
               | None -> ())
            | Seq.Seq_aborted, _ -> ()
          end)
        cls.Classify.hard;
      (* Every found test must confirm. (No test found at all is fine —
         budgets are small here.) *)
      !confirmed = !checked)

(* Models shared through a memo are only read, so every search over
   them is the search over freshly built ones: on random scan chains,
   random per-chain bounds and random frame lists within 1-4, each
   collapsed fault gets the same result, test, backtracks and stop
   reasons either way, and the shared memo builds each frame count once. *)
let prop_memo_matches_fresh_builds =
  Q.Test.make ~name:"a shared model memo gives the fresh-build search"
    ~count:6
    (Q.map Int64.of_int (Q.int_bound 1000000))
    (fun seed ->
      let scanned, config = scan_small ~gates:60 ~ffs:6 seed in
      let rng = Fst_gen.Rng.create (Int64.add seed 5L) in
      let bounds =
        List.filter_map
          (fun ch ->
            let len = Array.length ch.Scan.ffs in
            if Fst_gen.Rng.bool rng then None
            else
              Some
                ( ch.Scan.index,
                  (Fst_gen.Rng.int rng (len + 1), Fst_gen.Rng.int rng (len + 1))
                ))
          (Array.to_list config.Scan.chains)
      in
      let position = Hashtbl.create 16 in
      Array.iter
        (fun ch ->
          Array.iteri
            (fun pos ff -> Hashtbl.replace position ff (ch.Scan.index, pos))
            ch.Scan.ffs)
        config.Scan.chains;
      let within pick ff =
        match Hashtbl.find_opt position ff with
        | None -> false
        | Some (chain, pos) -> (
          match List.assoc_opt chain bounds with
          | None -> true
          | Some b -> pick b pos)
      in
      let frames_list =
        List.init (1 + Fst_gen.Rng.int rng 3) (fun _ ->
            1 + Fst_gen.Rng.int rng 4)
      in
      let memo = Seq.memo () in
      let run ?memo fault =
        Seq.run ?memo scanned ~constraints:config.Scan.constraints
          ~controllable_ff:(within (fun (m, _) pos -> pos < m))
          ~observable_ff:(within (fun (_, o) pos -> pos >= o))
          ~fault ~frames_list ~backtrack_limit:30
      in
      let built = ref 0 in
      let same =
        Array.for_all
          (fun fault ->
            let r, s = run ~memo fault and r', s' = run fault in
            built := !built + s.Seq.models_built;
            r = r'
            && s.Seq.runs = s'.Seq.runs
            && s.Seq.backtracks = s'.Seq.backtracks
            && s.Seq.stops = s'.Seq.stops
            && s'.Seq.models_built = s'.Seq.runs)
          (Fault.collapse scanned (Fault.universe scanned))
      in
      same && !built <= List.length (List.sort_uniq compare frames_list))

let test_seq_finds_shift_register_fault () =
  (* In a plain shift register scanned by TPI, any chain fault has an easy
     sequential test when the whole chain is controllable/observable. *)
  let b = Builder.create ~name:"sr" () in
  let si = Builder.add_input ~name:"d" b in
  let f0 = Builder.add_dff ~name:"f0" b ~data:si in
  let f1 = Builder.add_dff ~name:"f1" b ~data:f0 in
  let po = Builder.add_gate ~name:"po" b Gate.Not [ f1 ] in
  Builder.mark_output b po;
  let c = Builder.freeze b in
  let scanned, config = Tpi.insert c in
  let fault = { Fault.site = Fault.Stem f0; stuck = true } in
  match
    Seq.run scanned ~constraints:config.Scan.constraints
      ~controllable_ff:(fun _ -> true)
      ~observable_ff:(fun _ -> true)
      ~fault ~frames_list:[ 1; 2 ] ~backtrack_limit:200
  with
  | Seq.Seq_test test, stats ->
    Alcotest.(check bool) "at least one run" true (stats.Seq.runs >= 1);
    Alcotest.(check int) "one stop reason per run" stats.Seq.runs
      (Array.fold_left ( + ) 0 stats.Seq.stops);
    Alcotest.(check int) "the last run found the test" 1
      stats.Seq.stops.(Podem.stop_index Podem.Found);
    let stim = Sequences.of_seq_test scanned config test in
    (match
       Fst_fsim.Fsim.Serial.detect scanned ~fault
         ~observe:scanned.Circuit.outputs stim
     with
     | Some _ -> ()
     | None -> Alcotest.fail "sequential test did not confirm")
  | Seq.Seq_aborted, _ -> Alcotest.fail "expected a test"

let test_deadline_aborts () =
  let scanned, config = scan_small 3L in
  let fault =
    { Fault.site = Fault.Stem config.Scan.chains.(0).Scan.ffs.(0); stuck = true }
  in
  (* An already-tripped abort hook (e.g. an expired wall-clock deadline)
     aborts immediately without any run. *)
  match
    Seq.run ~should_abort:(fun () -> true) scanned
      ~constraints:config.Scan.constraints
      ~controllable_ff:(fun _ -> true)
      ~observable_ff:(fun _ -> true)
      ~fault ~frames_list:[ 1; 2; 4 ] ~backtrack_limit:200
  with
  | Seq.Seq_aborted, stats -> Alcotest.(check int) "no runs" 0 stats.Seq.runs
  | Seq.Seq_test _, _ -> Alcotest.fail "deadline ignored"

let suite =
  [
    Helpers.qcheck prop_seq_tests_are_real;
    Helpers.qcheck prop_memo_matches_fresh_builds;
    Alcotest.test_case "shift-register fault" `Quick test_seq_finds_shift_register_fault;
    Alcotest.test_case "deadline aborts" `Quick test_deadline_aborts;
  ]
