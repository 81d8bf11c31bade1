(* Self-tests of the harness, run before every measurement and on their
   own with [--self-test]. Each returns the failures it found. *)

module Report = Fst_report.Flow_report

let check name ok = if ok then [] else [ name ]

let percentiles () =
  let upto n = Array.init n (fun i -> float_of_int (i + 1)) in
  let is v = function Ok x -> x = v | Error _ -> false in
  let refused = function Ok _ -> false | Error _ -> true in
  List.concat
    [
      check "p50 of 1..100 is 50" (is 50.0 (Stats.percentile 50 (upto 100)));
      check "p90 of 1..100 is 90" (is 90.0 (Stats.percentile 90 (upto 100)));
      check "p91 of 100 samples is refused" (refused (Stats.percentile 91 (upto 100)));
      check "p99 of 100 samples is refused" (refused (Stats.percentile 99 (upto 100)));
      check "p99 of 1..1000 is 990" (is 990.0 (Stats.percentile 99 (upto 1000)));
      check "p50 of 19 samples is refused" (refused (Stats.percentile 50 (upto 19)));
      check "p50 of 1..20 is 10" (is 10.0 (Stats.percentile 50 (upto 20)));
      check "p50 of 30..1 is 15"
        (is 15.0 (Stats.percentile 50 (Array.init 30 (fun i -> float_of_int (30 - i)))));
    ]

let names declared =
  List.concat
    [
      List.concat_map
        (fun n -> check ("declared metric name " ^ n) (Stats.valid_name n))
        declared;
      List.concat_map
        (fun n -> check (Printf.sprintf "name %S is refused" n) (not (Stats.valid_name n)))
        [ ""; "a b"; "_x"; "x/y"; "p99%"; String.make 65 'a' ];
    ]

(* A real flow against its committed reference: it matches under two
   seeds, and each doctored copy of the reference is caught. *)
let reference ~seed =
  let spec = Flows.atpg_chains in
  let i = 1 (* s1488, a flow of a few milliseconds *) in
  let expected = List.nth (Flows.load_reference spec) i in
  let one = { spec with Flows.entries = [ List.nth spec.Flows.entries i ] } in
  let flow seed =
    match Flows.setup ~seed one with
    | [ c ], _ -> (
      let tally = Flows.tally () in
      match Flows.run_flow ~tally ~sink:Fst_obs.Sink.null c ~expected with
      | Some (r, wall) -> (r, wall, tally.Flows.failed)
      | None -> failwith "self-test flow raised")
    | _ -> assert false
  in
  let r, wall, failed = flow seed in
  let _, _, failed' = flow (seed + 1) in
  let caught doctored = Flows.problems ~expected:doctored ~wall r <> [] in
  List.concat
    [
      check "flow matches its reference" (failed = 0);
      check "flow matches its reference under another seed" (failed' = 0);
      check "doctored detection count is caught"
        (caught { expected with Report.step2_detected = expected.Report.step2_detected + 1 });
      check "doctored fault name is caught"
        (caught { expected with Report.undetected = "g0 s-a-0" :: expected.Report.undetected });
      check "doctored backtrack count is caught"
        (caught { expected with Report.podem_backtracks = expected.Report.podem_backtracks + 1 });
    ]

let run ~seed ~declared =
  percentiles () @ names declared @ reference ~seed
