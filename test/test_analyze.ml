(* The run-artifact analysis layer: critical path, quantiles, diff
   gating, OpenMetrics validation, and the --obs-dir pure-observer
   contract. *)

open Fst_tpi
open Fst_core
module Q = QCheck
module M = Fst_obs.Metrics
module Json = Fst_obs.Json
module A = Fst_obs.Analyze
module Artifacts = Fst_obs.Artifacts
module Openmetrics = Fst_obs.Openmetrics
module Pool = Fst_exec.Pool

let eps = 1e-9

(* --- critical path ----------------------------------------------------- *)

let span name tid t0 t1 = { A.name; cat = "t"; tid; t0; t1; args = [] }

let test_critical_path_chain () =
  (* a(0..2) then b(3..5.5) form the chain; c(0..4) overlaps both. *)
  let spans = [ span "a" 0 0.0 2.0; span "b" 0 3.0 5.5; span "c" 1 0.0 4.0 ] in
  let cp = A.critical_path spans in
  Alcotest.(check (float eps)) "length" 4.5 cp.A.cp_length_s;
  Alcotest.(check (float eps)) "total" 8.5 cp.A.cp_total_s;
  Alcotest.(check (float eps)) "window" 5.5 cp.A.cp_window_s;
  Alcotest.(check (list string)) "chain" [ "a"; "b" ]
    (List.map (fun s -> s.A.name) cp.A.cp_chain);
  Alcotest.(check (float eps)) "amdahl" (8.5 /. 4.5) cp.A.cp_amdahl

(* A phase span and the calls nested in it on one tid are one stretch of
   work: the total counts each instant of a tid once, so a single-domain
   run has no parallel headroom. *)
let test_critical_path_nested_one_tid () =
  let spans =
    [ span "phase" 0 0.0 10.0; span "call" 0 1.0 4.0; span "call" 0 5.0 9.0;
      span "inner" 0 2.0 3.0 ]
  in
  let cp = A.critical_path spans in
  Alcotest.(check (float eps)) "total counts nesting once" 10.0
    cp.A.cp_total_s;
  Alcotest.(check (float eps)) "length" 10.0 cp.A.cp_length_s;
  Alcotest.(check (float eps)) "amdahl" 1.0 cp.A.cp_amdahl

let test_critical_path_empty () =
  let cp = A.critical_path [] in
  Alcotest.(check (float eps)) "empty length" 0.0 cp.A.cp_length_s;
  Alcotest.(check (float eps)) "empty amdahl" 1.0 cp.A.cp_amdahl

(* Random span soups: the critical path can never exceed the observation
   window (a chain of non-overlapping spans fits inside it) nor the
   total span time (it is a subset of the spans). *)
let prop_critical_path_bounds =
  Q.Test.make ~name:"critical path <= window and <= total" ~count:200
    Q.(
      list_of_size
        Gen.(1 -- 40)
        (triple (float_range 0.0 100.0) (float_range 0.0 5.0) (int_bound 3)))
    (fun raw ->
      let spans =
        List.mapi
          (fun i (t0, dur, tid) ->
            span (Printf.sprintf "s%d" i) tid t0 (t0 +. Float.abs dur))
          raw
      in
      let cp = A.critical_path spans in
      cp.A.cp_length_s <= cp.A.cp_window_s +. eps
      && cp.A.cp_length_s <= cp.A.cp_total_s +. eps
      && cp.A.cp_amdahl >= 1.0 -. eps)

(* --- quantiles --------------------------------------------------------- *)

(* The log-bucket estimate brackets the exact sample quantile within one
   power-of-two bucket: exact < estimate <= 2 * exact. *)
let prop_quantile_one_log_bucket =
  Q.Test.make ~name:"quantile within one log-bucket of exact" ~count:300
    Q.(
      pair
        (list_of_size Gen.(1 -- 200) (float_range 1e-5 1e6))
        (float_range 0.01 1.0))
    (fun (values, q) ->
      let h = M.Histogram.create () in
      List.iter (M.Histogram.observe h) values;
      let est = M.Histogram.quantile h q in
      let n = List.length values in
      let rank =
        let r = int_of_float (Float.ceil (q *. float_of_int n)) in
        if r < 1 then 1 else if r > n then n else r
      in
      let exact = List.nth (List.sort Float.compare values) (rank - 1) in
      exact < est && est <= 2.0 *. exact +. eps)

let test_quantile_empty_and_sum () =
  let h = M.Histogram.create () in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (M.Histogram.quantile h 0.5));
  M.Histogram.observe h 1.5;
  M.Histogram.observe h 2.5;
  Alcotest.(check (float 1e-12)) "sum" 4.0 (M.Histogram.sum h)

(* Artifacts.quantile_of_buckets is the same estimator, over the
   serialized bucket list. *)
let test_quantile_of_buckets_matches () =
  let h = M.Histogram.create () in
  List.iter (M.Histogram.observe h) [ 0.1; 0.4; 1.7; 3.0; 9.9 ];
  let buckets = M.Histogram.buckets h in
  let n = M.Histogram.count h in
  List.iter
    (fun q ->
      Alcotest.(check (float eps))
        (Printf.sprintf "q=%g" q)
        (M.Histogram.quantile h q)
        (Artifacts.quantile_of_buckets buckets n q))
    [ 0.5; 0.9; 0.99 ]

(* --- diff -------------------------------------------------------------- *)

let mk_run ?(wall = 1.0) ?(phases = []) ?(counters = []) () =
  {
    A.wall_s = wall;
    phases;
    counters;
    gauges = [];
    histograms = [];
    config = Json.Null;
  }

let prop_diff_symmetric_zero =
  Q.Test.make ~name:"diff r r is all-zero with no regressions" ~count:100
    Q.(
      pair (float_range 0.0001 100.0)
        (list_of_size
           Gen.(0 -- 6)
           (pair (string_of_size Gen.(1 -- 8)) (float_range 0.0001 10.0))))
    (fun (wall, phases) ->
      let r = mk_run ~wall ~phases () in
      let entries = A.diff r r in
      A.regressions entries = []
      && List.for_all (fun e -> e.A.d_delta_frac = 0.0) entries)

let test_diff_regression_gate () =
  let base = mk_run ~wall:1.0 ~phases:[ ("step3", 0.5) ] () in
  let slow = mk_run ~wall:1.0 ~phases:[ ("step3", 0.65) ] () in
  let entries = A.diff ~threshold:0.20 base slow in
  (match A.regressions entries with
  | [ e ] ->
    Alcotest.(check string) "regressed key" "phase:step3" e.A.d_key;
    Alcotest.(check (float 1e-6)) "delta" 0.3 e.A.d_delta_frac
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l));
  (* faster is an improvement, never a regression *)
  Alcotest.(check (list string)) "no regression when faster" []
    (List.map (fun e -> e.A.d_key) (A.regressions (A.diff ~threshold:0.20 slow base)));
  (* sub-floor pairs never gate *)
  let tiny_a = mk_run ~wall:0.0002 () and tiny_b = mk_run ~wall:0.0009 () in
  Alcotest.(check int) "sub-floor is unchanged" 0
    (List.length (A.regressions (A.diff tiny_a tiny_b)))

let test_counters_informational () =
  let base = mk_run ~counters:[ ("atpg.podem.runs", 10) ] () in
  let cur = mk_run ~counters:[ ("atpg.podem.runs", 100) ] () in
  let entries = A.diff base cur in
  Alcotest.(check int) "counter change never gates" 0
    (List.length (A.regressions entries));
  let e = List.find (fun e -> e.A.d_key = "counter:atpg.podem.runs") entries in
  Alcotest.(check bool) "counter not gated" false e.A.d_gated

(* --- utilization & self time ------------------------------------------- *)

(* A pool chunk span as Pool writes it: category [pool], the worker in
   [wid], the steal flag in [stolen]; its tid is the domain's, not the
   worker slot. *)
let chunk wid t0 t1 stolen =
  {
    A.name = "w[0..0]";
    cat = "pool";
    tid = 10 + wid;
    t0;
    t1;
    args = [ ("wid", Json.Int wid); ("stolen", Json.Bool stolen) ];
  }

let test_utilization_gaps () =
  let spans =
    [ chunk 0 0.0 1.0 false; chunk 0 3.0 4.0 false; chunk 1 0.0 4.0 true;
      (* not pool work: a phase span covering the idle gap *)
      span "phase" 10 0.0 6.0 ]
  in
  match A.utilization ~gap_s:0.5 spans with
  | [ u0; u1 ] ->
    Alcotest.(check int) "wid order" 0 u0.A.u_wid;
    Alcotest.(check int) "wid from args" 1 u1.A.u_wid;
    Alcotest.(check int) "chunks0" 2 u0.A.u_chunks;
    Alcotest.(check (float eps)) "busy0" 2.0 u0.A.u_busy_s;
    Alcotest.(check (float eps)) "frac0" 0.5 u0.A.u_busy_frac;
    Alcotest.(check int) "one idle gap" 1 (List.length u0.A.u_gaps);
    Alcotest.(check int) "steal count" 1 u1.A.u_steals;
    Alcotest.(check int) "no gaps on busy worker" 0 (List.length u1.A.u_gaps)
  | l -> Alcotest.failf "expected 2 workers, got %d" (List.length l)

let test_self_times_nesting () =
  let spans =
    [ span "parent" 0 0.0 10.0; span "child" 0 2.0 8.0; span "other" 1 0.0 3.0 ]
  in
  let stats = A.self_times spans in
  let find n = List.find (fun s -> s.A.ns_name = n) stats in
  Alcotest.(check (float eps)) "parent self" 4.0 (find "parent").A.ns_self_s;
  Alcotest.(check (float eps)) "child self" 6.0 (find "child").A.ns_self_s;
  Alcotest.(check (float eps)) "other self" 3.0 (find "other").A.ns_self_s;
  Alcotest.(check string) "hotspot order" "child"
    (List.hd (A.hotspots ~k:1 spans)).A.ns_name

(* --- OpenMetrics -------------------------------------------------------- *)

let test_openmetrics_round_trip () =
  let r = M.create () in
  M.Counter.add (M.counter r "flow.total") 3;
  M.Gauge.set (M.gauge r "pool.domain0.busy_frac") 0.75;
  M.Fcounter.add (M.fcounter r "pool.domain0.busy_s") 1.5;
  let h = M.histogram r "fsim.call_s" in
  List.iter (M.Histogram.observe h) [ 0.001; 0.004; 0.3 ];
  let text = Openmetrics.expose r in
  (match Openmetrics.validate text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "exposition did not validate: %s" e);
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (Helpers.contains_substring ~needle text))
    [
      "# TYPE flow_total counter"; "flow_total_total 3";
      "pool_domain0_busy_frac 0.75"; "# TYPE fsim_call_s histogram";
      "fsim_call_s_count 3"; "le=\"+Inf\"} 3"; "# EOF";
    ]

let test_openmetrics_rejects () =
  let bad monotone =
    "# TYPE h histogram\n" ^ "h_bucket{le=\"0.5\"} 5\n"
    ^ (if monotone then "h_bucket{le=\"1\"} 7\n" else "h_bucket{le=\"1\"} 3\n")
    ^ "# EOF\n"
  in
  (match Openmetrics.validate (bad true) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "monotone buckets rejected: %s" e);
  (match Openmetrics.validate (bad false) with
  | Ok () -> Alcotest.fail "non-monotone buckets accepted"
  | Error _ -> ());
  (match Openmetrics.validate "x 1\n" with
  | Ok () -> Alcotest.fail "missing # EOF accepted"
  | Error _ -> ());
  match Openmetrics.validate "# TYPE h rainbow\nh 1\n# EOF\n" with
  | Ok () -> Alcotest.fail "unknown type accepted"
  | Error _ -> ()

(* --- artifacts round trip ---------------------------------------------- *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fst-analyze-%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let test_artifacts_round_trip () =
  with_temp_dir (fun dir ->
      let a = Artifacts.create ~dir in
      let sink = Artifacts.sink a in
      (* Feed every channel: a pool map (chunk spans + domain gauges), a
         phase gauge, an event. *)
      let xs = Array.init 50 (fun i -> i) in
      let r =
        Pool.map_array ~obs:sink ~label:"sq" ~jobs:2 (fun x -> x * x) xs
      in
      Alcotest.(check int) "pool result intact" 2401 r.(49);
      M.Gauge.set (M.gauge sink.Fst_obs.Sink.metrics "flow.step3.wall_s") 0.25;
      Fst_obs.Sink.event sink ~kind:"phase_start"
        [ ("phase", Json.String "step3") ];
      Artifacts.write ~config:(Json.Obj [ ("circuit", Json.String "t") ]) a;
      List.iter
        (fun f ->
          Alcotest.(check bool) (f ^ " exists") true
            (Sys.file_exists (Filename.concat dir f)))
        [ "run.json"; "trace.json"; "events.jsonl"; "metrics.prom" ];
      let raw =
        Json.of_string
          (In_channel.with_open_bin (Filename.concat dir "run.json")
             In_channel.input_all)
      in
      Alcotest.(check bool) "schema fst-run/2" true
        (Json.member "schema" raw = Some (Json.String "fst-run/2"));
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " key gone") true
            (Json.member k raw = None))
        [ "domains"; "timeline" ];
      match A.load_dir dir with
      | Error e -> Alcotest.failf "load_dir: %s" e
      | Ok (run, spans) ->
        Alcotest.(check (option (float eps))) "phase survives" (Some 0.25)
          (List.assoc_opt "step3" run.A.phases);
        Alcotest.(check bool) "pool spans recorded" true
          (List.exists (fun s -> s.A.cat = "pool") spans);
        Alcotest.(check bool) "utilization derivable" true
          (A.utilization spans <> []);
        (* and the self-diff is clean *)
        Alcotest.(check int) "self-diff has no regressions" 0
          (List.length (A.regressions (A.diff run run))))

(* `fst analyze --baseline` takes an artifact directory or its fst-run/2
   run.json and nothing else: a file in the retired bench-summary shape
   fails with the run.json schema error (exit 1), and the circuit
   selector option that went with it is unknown (exit 2). *)
let test_cli_baseline_is_run_json () =
  with_temp_dir (fun dir ->
      let obs = Filename.concat dir "obs" in
      Unix.mkdir dir 0o700;
      Artifacts.write
        ~config:(Json.Obj [ ("circuit", Json.String "s1423") ])
        (Artifacts.create ~dir:obs);
      let bench = Filename.concat dir "bench.json" in
      let oc = open_out bench in
      output_string oc
        {|{"scale":0.1,"jobs":8,"circuits":[{"name":"s1423",
            "serial":{"wall_s":1.0,"phases":{"step3":0.5},
              "counters":{"atpg.podem.runs":7}}}]}|};
      close_out oc;
      let code, _, stderr =
        Helpers.run_fst [ "analyze"; obs; "--baseline"; bench ]
      in
      Alcotest.(check int) "bench-shaped baseline: exit code" 1 code;
      Alcotest.(check bool)
        ("run.json schema error: " ^ stderr)
        true
        (Helpers.contains_substring ~needle:(bench ^ ": run.json") stderr);
      let selector = "--" ^ "circuit" in
      let code, _, stderr =
        Helpers.run_fst
          [ "analyze"; obs; "--baseline"; obs; selector; "s1423" ]
      in
      Alcotest.(check int) (selector ^ ": usage-error exit code") 2 code;
      Alcotest.(check bool)
        ("unknown option: " ^ stderr)
        true
        (Helpers.contains_substring
           ~needle:("fst analyze: unknown option " ^ selector) stderr);
      let code, _, _ = Helpers.run_fst [ "analyze"; obs; "--baseline"; obs ] in
      Alcotest.(check int) "obs-dir baseline still accepted" 0 code)

(* The domains section is derived from the pool spans alone, and agrees
   with the pool's own metrics: per worker, busy seconds equal
   [pool.domain<k>.busy_s]; over all workers, chunks and steals equal the
   [pool.<label>.chunks]/[steals] counters. At one job too, where the map
   runs on the calling domain. *)
let test_utilization_matches_pool_metrics () =
  List.iter
    (fun jobs ->
      with_temp_dir (fun dir ->
          let a = Artifacts.create ~dir in
          let sink = Artifacts.sink a in
          let m = sink.Fst_obs.Sink.metrics in
          let spin x =
            let acc = ref x in
            for k = 1 to 20_000 do
              acc := (!acc * 31) + k
            done;
            !acc
          in
          ignore
            (Pool.map_array ~obs:sink ~label:"sq" ~jobs spin
               (Array.init 64 (fun i -> i)));
          Artifacts.write a;
          match A.load_dir dir with
          | Error e -> Alcotest.failf "load_dir: %s" e
          | Ok (_, spans) ->
            let utils = A.utilization spans in
            let tag s = Printf.sprintf "%s jobs=%d" s jobs in
            Alcotest.(check bool) (tag "domains present") true (utils <> []);
            List.iter
              (fun u ->
                Alcotest.(check (float 1e-6))
                  (tag (Printf.sprintf "busy d%d" u.A.u_wid))
                  (M.Fcounter.value
                     (M.fcounter m
                        (Printf.sprintf "pool.domain%d.busy_s" u.A.u_wid)))
                  u.A.u_busy_s)
              utils;
            let sum f = List.fold_left (fun acc u -> acc + f u) 0 utils in
            let counter name = M.Counter.value (M.counter m name) in
            Alcotest.(check int) (tag "chunks")
              (counter "pool.sq.chunks")
              (sum (fun u -> u.A.u_chunks));
            Alcotest.(check int) (tag "steals")
              (counter "pool.sq.steals")
              (sum (fun u -> u.A.u_steals))))
    [ 1; 2 ]

(* Pool spans are named by their region, so the hotspot table has one
   row per parallel region, and each span's [lo]/[hi] args say which
   tasks its chunk ran: together they cover every task once. *)
let test_pool_hotspots_by_region () =
  List.iter
    (fun jobs ->
      with_temp_dir (fun dir ->
          let a = Artifacts.create ~dir in
          let sink = Artifacts.sink a in
          let xs = Array.init 64 (fun i -> i) in
          let map label f = ignore (Pool.map_array ~obs:sink ~label ~jobs f xs) in
          map "sq" (fun x -> x * x);
          map "cube" (fun x -> x * x * x);
          Artifacts.write a;
          match A.load_dir dir with
          | Error e -> Alcotest.failf "load_dir: %s" e
          | Ok (_, spans) ->
            let tag s = Printf.sprintf "%s jobs=%d" s jobs in
            let pool = List.filter (fun s -> s.A.cat = "pool") spans in
            let rows =
              List.filter_map
                (fun ns ->
                  if List.exists (fun s -> s.A.name = ns.A.ns_name) pool then
                    Some (ns.A.ns_name, ns.A.ns_count)
                  else None)
                (A.self_times spans)
            in
            let chunks label =
              let m = sink.Fst_obs.Sink.metrics in
              M.Counter.value (M.counter m ("pool." ^ label ^ ".chunks"))
            in
            Alcotest.(check (list (pair string int)))
              (tag "one pool row per label")
              [ ("cube", chunks "cube"); ("sq", chunks "sq") ]
              (List.sort compare rows);
            List.iter
              (fun label ->
                let covered = Array.make 64 0 in
                List.iter
                  (fun s ->
                    if s.A.name = label then
                      let arg k = List.assoc_opt k s.A.args in
                      match (arg "lo", arg "hi") with
                      | Some (Json.Int lo), Some (Json.Int hi) ->
                        for i = lo to hi do
                          covered.(i) <- covered.(i) + 1
                        done
                      | _ -> Alcotest.failf "%s span without lo/hi" label)
                  pool;
                Alcotest.(check bool)
                  (tag (label ^ " chunks cover every task once"))
                  true
                  (Array.for_all (( = ) 1) covered))
              [ "sq"; "cube" ]))
    [ 1; 2 ]

let test_validate_run_rejects () =
  (match Artifacts.validate_run (Json.Obj [ ("schema", Json.String "x") ]) with
  | Ok () -> Alcotest.fail "bad schema accepted"
  | Error _ -> ());
  match Artifacts.validate_run (Json.List []) with
  | Ok () -> Alcotest.fail "non-object accepted"
  | Error _ -> ()

(* --- the pure-observer contract ---------------------------------------- *)

let quick_config =
  Config.(
    default |> with_comb_backtrack 100 |> with_seq_backtrack 200
    |> with_final_backtrack 500 |> with_frames [ 1; 2 ]
    |> with_final_frames [ 1; 2; 4 ])

(* A full --obs-dir artifact sink observes the flow without changing it:
   every result bucket matches the null-sink run exactly. *)
let prop_obs_dir_pure_observer =
  Q.Test.make ~name:"--obs-dir flow result = null-sink flow result" ~count:3
    Q.(int_range 1 1000)
    (fun seed ->
      let c = Helpers.small_seq_circuit ~gates:120 ~ffs:8 (Int64.of_int seed) in
      let scanned, config =
        Tpi.insert
          ~options:{ Tpi.default_options with Tpi.chains = 2; justify_depth = 4 }
          c
      in
      let quiet =
        Flow.run ~config:Config.(quick_config |> with_jobs 1) scanned config
      in
      with_temp_dir (fun dir ->
          let a = Artifacts.create ~dir in
          let loud =
            Flow.run
              ~config:
                Config.(
                  quick_config |> with_jobs 1 |> with_sink (Artifacts.sink a))
              scanned config
          in
          Artifacts.write a;
          quiet.Flow.step2.Flow.vectors = loud.Flow.step2.Flow.vectors
          && quiet.Flow.verdicts = loud.Flow.verdicts
          && quiet.Flow.atpg = loud.Flow.atpg
          && quiet.Flow.aborts = loud.Flow.aborts))

let suite =
  [
    Alcotest.test_case "critical path chain" `Quick test_critical_path_chain;
    Alcotest.test_case "critical path empty" `Quick test_critical_path_empty;
    Alcotest.test_case "critical path counts nested spans once" `Quick
      test_critical_path_nested_one_tid;
    Helpers.qcheck prop_critical_path_bounds;
    Helpers.qcheck prop_quantile_one_log_bucket;
    Alcotest.test_case "quantile empty + sum" `Quick test_quantile_empty_and_sum;
    Alcotest.test_case "quantile of serialized buckets" `Quick
      test_quantile_of_buckets_matches;
    Helpers.qcheck prop_diff_symmetric_zero;
    Alcotest.test_case "diff regression gate" `Quick test_diff_regression_gate;
    Alcotest.test_case "counters are informational" `Quick
      test_counters_informational;
    Alcotest.test_case "utilization and idle gaps" `Quick test_utilization_gaps;
    Alcotest.test_case "self time nesting" `Quick test_self_times_nesting;
    Alcotest.test_case "openmetrics round trip" `Quick
      test_openmetrics_round_trip;
    Alcotest.test_case "openmetrics rejects malformed" `Quick
      test_openmetrics_rejects;
    Alcotest.test_case "artifacts round trip" `Quick test_artifacts_round_trip;
    Alcotest.test_case "utilization matches pool metrics" `Quick
      test_utilization_matches_pool_metrics;
    Alcotest.test_case "pool hotspots are keyed by region" `Quick
      test_pool_hotspots_by_region;
    Alcotest.test_case "validate_run rejects" `Quick test_validate_run_rejects;
    Alcotest.test_case "cli baseline is an obs dir or run.json" `Quick
      test_cli_baseline_is_run_json;
    Helpers.qcheck prop_obs_dir_pure_observer;
  ]
