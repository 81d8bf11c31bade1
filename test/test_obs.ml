(* The observability library: registry semantics, exact histogram merge
   across Pool domains, trace JSON shape, the JSONL event log, and the
   headline contract — a live sink never changes what the flow computes. *)

module M = Fst_obs.Metrics
module Json = Fst_obs.Json
module Trace = Fst_obs.Trace
module Events = Fst_obs.Events
module Sink = Fst_obs.Sink
module Pool = Fst_exec.Pool
module Q = QCheck
open Fst_tpi
open Fst_core

(* --- registry ---------------------------------------------------------- *)

let test_counters () =
  let r = M.create () in
  let c = M.counter r "a.count" in
  M.Counter.incr c;
  M.Counter.add c 41;
  Alcotest.(check int) "value" 42 (M.Counter.value c);
  (* Get-or-create: the same name yields the same cell. *)
  M.Counter.incr (M.counter r "a.count");
  Alcotest.(check int) "shared cell" 43 (M.Counter.value c);
  (match M.gauge r "a.count" with
  | _ -> Alcotest.fail "wrong-type lookup should raise"
  | exception Invalid_argument _ -> ())

let test_gauges_fcounters () =
  let r = M.create () in
  let g = M.gauge r "g" in
  M.Gauge.set g 1.5;
  M.Gauge.set g 2.25;
  Alcotest.(check (float 0.0)) "last write wins" 2.25 (M.Gauge.value g);
  let f = M.fcounter r "f" in
  M.Fcounter.add f 0.5;
  M.Fcounter.add f 0.25;
  Alcotest.(check (float 1e-12)) "fcounter sums" 0.75 (M.Fcounter.value f)

let test_histogram_basic () =
  let h = M.Histogram.create () in
  Alcotest.(check int) "empty count" 0 (M.Histogram.count h);
  Alcotest.(check bool) "empty min" true (M.Histogram.min_value h = infinity);
  Alcotest.(check bool) "empty max" true
    (M.Histogram.max_value h = neg_infinity);
  List.iter (M.Histogram.observe h) [ 0.001; 0.5; 0.5; 3.0; 1024.0 ];
  Alcotest.(check int) "count" 5 (M.Histogram.count h);
  Alcotest.(check (float 0.0)) "min" 0.001 (M.Histogram.min_value h);
  Alcotest.(check (float 0.0)) "max" 1024.0 (M.Histogram.max_value h);
  let total =
    List.fold_left (fun a (_, n) -> a + n) 0 (M.Histogram.buckets h)
  in
  Alcotest.(check int) "buckets sum to count" 5 total

let hist_fingerprint h =
  ( M.Histogram.count h,
    M.Histogram.buckets h,
    M.Histogram.min_value h,
    M.Histogram.max_value h )

let test_histogram_merge () =
  let all = M.Histogram.create () in
  let a = M.Histogram.create () and b = M.Histogram.create () in
  let xs = [ 0.1; 0.2; 7.0 ] and ys = [ 0.15; 100.0 ] in
  List.iter (M.Histogram.observe all) (xs @ ys);
  List.iter (M.Histogram.observe a) xs;
  List.iter (M.Histogram.observe b) ys;
  let m = M.Histogram.create () in
  M.Histogram.merge_into ~dst:m ~src:a;
  M.Histogram.merge_into ~dst:m ~src:b;
  Alcotest.(check bool) "merge = concat" true
    (hist_fingerprint m = hist_fingerprint all)

(* Counter updates from real Pool domains commute exactly. *)
let test_counter_parallel_exact () =
  let r = M.create () in
  let c = M.counter r "hits" in
  ignore
    (Pool.map_array ~jobs:8
       (fun k ->
         for _ = 1 to k do
           M.Counter.incr c
         done;
         k)
       (Array.init 100 (fun i -> i)));
  Alcotest.(check int) "sum" (100 * 99 / 2) (M.Counter.value c)

(* The multicore accounting pattern used by Pool/Fsim: per-domain local
   histograms merged after the join are bit-identical to one serial
   histogram, whatever the partition, job count, or merge order. *)
let prop_histogram_merge_order_independent =
  Q.Test.make
    ~name:"per-domain histogram merge = serial histogram (any order)"
    ~count:100
    Q.(
      triple (int_bound 6) (int_bound 9)
        (list_of_size (Gen.int_bound 80) (int_bound 100_000)))
    (fun (jobs, chunk, ints) ->
      let jobs = jobs + 1 and chunk = chunk + 1 in
      let values = List.map (fun i -> float_of_int i /. 7.0) ints in
      let serial = M.Histogram.create () in
      List.iter (M.Histogram.observe serial) values;
      let chunks =
        let rec take k l =
          if k = 0 then ([], l)
          else
            match l with
            | [] -> ([], [])
            | x :: tl ->
              let a, b = take (k - 1) tl in
              (x :: a, b)
        in
        let rec go acc = function
          | [] -> List.rev acc
          | l ->
            let c, rest = take chunk l in
            go (c :: acc) rest
        in
        Array.of_list (go [] values)
      in
      let locals =
        Pool.map_array ~jobs
          (fun vs ->
            let h = M.Histogram.create () in
            List.iter (M.Histogram.observe h) vs;
            h)
          chunks
      in
      let merge order =
        let m = M.Histogram.create () in
        Array.iter (fun src -> M.Histogram.merge_into ~dst:m ~src) order;
        hist_fingerprint m
      in
      let n = Array.length locals in
      let rev = Array.init n (fun i -> locals.(n - 1 - i)) in
      merge locals = hist_fingerprint serial
      && merge rev = hist_fingerprint serial)

(* A single shared registry histogram hammered from several domains ends
   up identical to the serial fill (integer buckets + CAS extremes). *)
let test_histogram_shared_parallel () =
  let values = Array.init 500 (fun i -> float_of_int (i * i mod 997) /. 13.0) in
  let serial = M.Histogram.create () in
  Array.iter (M.Histogram.observe serial) values;
  let r = M.create () in
  let h = M.histogram r "shared" in
  ignore
    (Pool.map_array ~jobs:8 (fun v -> M.Histogram.observe h v) values);
  Alcotest.(check bool) "shared = serial" true
    (hist_fingerprint h = hist_fingerprint serial)

(* --- metrics snapshot round-trip --------------------------------------- *)

(* [Metrics.snapshot] is the one metrics representation; run.json is its
   JSON rendering, so the round trip goes through [Artifacts.run_json]. *)
let test_snapshot_json () =
  let dir = Filename.temp_dir "fst-obs" "" in
  let a = Fst_obs.Artifacts.create ~dir in
  let r = (Fst_obs.Artifacts.sink a).Sink.metrics in
  M.Counter.add (M.counter r "c") 7;
  M.Gauge.set (M.gauge r "g") 0.5;
  M.Histogram.observe (M.histogram r "h") 1.0;
  (match M.snapshot r with
  | [ ("c", M.Counter_v 7); ("g", M.Gauge_v 0.5); ("h", M.Histogram_v h) ] ->
    Alcotest.(check int) "histogram count" 1 h.M.h_count
  | _ -> Alcotest.fail "snapshot: expected c = 7, g = 0.5, h, name-sorted");
  let j = Json.of_string (Json.to_string (Fst_obs.Artifacts.run_json a)) in
  Fst_obs.Artifacts.write a;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  (match Json.member "counters" j with
  | Some (Json.Obj [ ("c", Json.Int 7) ]) -> ()
  | _ -> Alcotest.fail "counters snapshot");
  match Json.member "histograms" j with
  | Some (Json.Obj [ ("h", h) ]) ->
    Alcotest.(check bool) "histogram count" true
      (Json.member "count" h = Some (Json.Int 1))
  | _ -> Alcotest.fail "histograms snapshot"

(* --- trace ------------------------------------------------------------- *)

let field name ev =
  match Json.member name ev with
  | Some v -> v
  | None -> Alcotest.failf "trace event missing %S" name

let num = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> Alcotest.fail "expected number"

let test_trace_json_shape () =
  let t = Trace.create () in
  Trace.with_span t ~name:"outer" ~cat:"phase" (fun () ->
      Trace.with_span t ~name:"inner1" ~cat:"work" (fun () -> ());
      Trace.with_span t ~name:"inner2" ~cat:"work" (fun () -> ()));
  Alcotest.(check int) "event count" 3 (Trace.event_count t);
  (* Round-trip through the emitted text, exactly like a consumer would. *)
  let j = Json.of_string (Json.to_string (Trace.to_json t)) in
  let events =
    match Json.member "traceEvents" j with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "traceEvents missing"
  in
  Alcotest.(check int) "all events exported" 3 (List.length events);
  List.iter
    (fun ev ->
      Alcotest.(check bool) "pid" true (field "pid" ev = Json.Int 1);
      ignore (num (field "ts" ev));
      (match field "ph" ev with
      | Json.String "X" -> ignore (num (field "dur" ev))
      | _ -> Alcotest.fail "unexpected phase");
      match (field "name" ev, field "cat" ev, field "tid" ev) with
      | Json.String _, Json.String _, Json.Int _ -> ()
      | _ -> Alcotest.fail "name/cat/tid types")
    events;
  (* Spans nest: both inner complete events sit inside the outer one. *)
  let span name =
    let ev =
      List.find (fun ev -> field "name" ev = Json.String name) events
    in
    let ts = num (field "ts" ev) in
    (ts, ts +. num (field "dur" ev))
  in
  let o0, o1 = span "outer" in
  List.iter
    (fun n ->
      let i0, i1 = span n in
      Alcotest.(check bool) (n ^ " starts inside") true (i0 >= o0);
      Alcotest.(check bool) (n ^ " ends inside") true (i1 <= o1 +. 1e-6))
    [ "inner1"; "inner2" ]

(* --- events ------------------------------------------------------------ *)

let test_events_jsonl () =
  let buf = Buffer.create 256 in
  let log = Events.to_buffer buf in
  Events.emit log ~kind:"phase_start" [ ("phase", Json.String "step2") ];
  Events.emit log ~kind:"aborts" [ ("count", Json.Int 3) ];
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  List.iter
    (fun line ->
      let j = Json.of_string line in
      (match Json.member "ts" j with
      | Some (Json.Float _) | Some (Json.Int _) -> ()
      | _ -> Alcotest.fail "ts missing");
      match Json.member "kind" j with
      | Some (Json.String _) -> ()
      | _ -> Alcotest.fail "kind missing")
    lines;
  Alcotest.(check bool) "fields survive" true
    (Helpers.contains_substring ~needle:"\"phase\":\"step2\""
       (Buffer.contents buf))

(* --- the sink contract ------------------------------------------------- *)

let scan_small ?(gates = 150) ?(ffs = 10) ?(chains = 2) seed =
  let c = Helpers.small_seq_circuit ~gates ~ffs seed in
  Tpi.insert
    ~options:{ Tpi.default_options with Tpi.chains; justify_depth = 4 }
    c

let quick_config =
  Config.(
    default |> with_comb_backtrack 100 |> with_seq_backtrack 200
    |> with_final_backtrack 500 |> with_frames [ 1; 2 ]
    |> with_final_frames [ 1; 2; 4 ])

(* A live sink observes the run without changing it: every result bucket,
   the undetected fault list, and the ATPG totals match the null-sink run
   exactly — and the instrumented run really did record something. *)
let test_live_sink_is_pure_observer () =
  let scanned, config = scan_small 11L in
  let quiet =
    Flow.run ~config:Config.(quick_config |> with_jobs 1) scanned config
  in
  let metrics = M.create () in
  let trace = Trace.create () in
  let buf = Buffer.create 1024 in
  let sink =
    Sink.create ~metrics ~trace ~events:(Events.to_buffer buf)
      ~atpg_span_s:0.0 ()
  in
  let loud =
    Flow.run
      ~config:Config.(quick_config |> with_jobs 1 |> with_sink sink)
      scanned config
  in
  Alcotest.(check int) "step2 vectors" quiet.Flow.step2.Flow.vectors
    loud.Flow.step2.Flow.vectors;
  Alcotest.(check bool) "verdicts identical" true
    (quiet.Flow.verdicts = loud.Flow.verdicts);
  Alcotest.(check bool) "atpg stats identical" true
    (quiet.Flow.atpg = loud.Flow.atpg);
  Alcotest.(check bool) "abort accounting identical" true
    (quiet.Flow.aborts = loud.Flow.aborts);
  (* ...and the sink was actually fed. *)
  Alcotest.(check bool) "trace recorded spans" true (Trace.event_count trace > 0);
  Alcotest.(check int) "podem counter matches report"
    loud.Flow.atpg.Flow.podem_runs
    (M.Counter.value (M.counter metrics "atpg.podem.runs"));
  Alcotest.(check int) "one stop reason per PODEM search"
    (loud.Flow.atpg.Flow.podem_runs + loud.Flow.atpg.Flow.seq_runs)
    (List.fold_left
       (fun acc stop ->
         acc
         + M.Counter.value
             (M.counter metrics ("atpg.stop." ^ Fst_atpg.Podem.stop_name stop)))
       0 Fst_atpg.Podem.all_stops);
  Alcotest.(check bool) "event log has phase markers" true
    (Helpers.contains_substring ~needle:"\"kind\":\"phase_start\""
       (Buffer.contents buf))

(* Step 3's model-build and search seconds reach the sink as fcounters,
   and its model count as a counter: at least one model, and no more
   than one per search run, since a group's targets share theirs. *)
let test_seq_seconds_in_sink () =
  let scanned, config = scan_small 1L in
  let metrics = M.create () in
  let sink = Sink.create ~metrics () in
  let r =
    Flow.run
      ~config:Config.(quick_config |> with_jobs 1 |> with_sink sink)
      scanned config
  in
  let seconds name =
    match List.assoc_opt name (M.snapshot metrics) with
    | Some (M.Fcounter_v s) -> s
    | _ -> -1.0
  in
  Alcotest.(check bool) "step 3 ran a search" true
    (r.Flow.atpg.Flow.seq_runs > 0);
  Alcotest.(check bool) "build seconds recorded" true
    (seconds "atpg.seq.build_s" > 0.0);
  Alcotest.(check bool) "search seconds recorded" true
    (seconds "atpg.seq.search_s" > 0.0);
  let models = M.Counter.value (M.counter metrics "atpg.seq.models") in
  Alcotest.(check bool) "models counted" true
    (models > 0 && models <= r.Flow.atpg.Flow.seq_runs)

(* A traced flow splits every fault-simulation engine call into its
   good-trace and simulation layers: one [fsim.trace] and one
   [fsim.simulate] child span per [fsim.<entry>] span, classification's
   [fsim.steady_state] included. *)
let test_engine_child_spans () =
  let scanned, config = scan_small 11L in
  let trace = Trace.create () in
  let sink = Sink.create ~trace () in
  ignore
    (Flow.run
       ~config:Config.(quick_config |> with_jobs 1 |> with_sink sink)
       scanned config);
  let names =
    match Json.member "traceEvents" (Trace.to_json trace) with
    | Some (Json.List evs) ->
      List.filter_map
        (fun e ->
          match Json.member "name" e with
          | Some (Json.String n) -> Some n
          | _ -> None)
        evs
    | _ -> []
  in
  let count p = List.length (List.filter p names) in
  let calls =
    count (fun n ->
        n = "fsim.detect_all" || n = "fsim.detect_dropping"
        || n = "fsim.steady_state")
  in
  Alcotest.(check bool) "engine calls traced" true (calls > 0);
  Alcotest.(check bool) "a windowed dropping call" true
    (count (String.equal "fsim.detect_dropping") > 0);
  Alcotest.(check int) "classification is one steady-state call" 1
    (count (String.equal "fsim.steady_state"));
  Alcotest.(check int) "one fsim.trace per call" calls
    (count (String.equal "fsim.trace"));
  Alcotest.(check int) "one fsim.simulate per call" calls
    (count (String.equal "fsim.simulate"))

(* --- the JSON parser ------------------------------------------------------ *)

(* Random trees round-trip through [to_string] and [of_string]. Strings
   are arbitrary bytes, weighted towards quotes, backslashes, control
   characters (written as \u escapes) and non-ASCII bytes; floats have a
   fractional part, since an integral float renders as an int. *)
let json_gen =
  let open Q.Gen in
  let byte =
    frequency
      [
        (3, char_range 'a' 'z');
        (1, oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\b'; '\000' ]);
        (1, map Char.chr (int_range 0 0x1f));
        (1, map Char.chr (int_range 0x80 0xff));
      ]
  in
  let str = string_size ~gen:byte (int_range 0 12) in
  let num =
    map2 (fun k f -> Float.of_int k +. f) (int_range (-1000) 1000)
      (float_range 0.001 0.999)
  in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun f -> Json.Float f) num;
               map (fun s -> Json.String s) str;
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map
                   (fun l -> Json.List l)
                   (list_size (int_range 0 4) (self (n / 3))) );
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_range 0 4) (pair str (self (n / 3)))) );
             ])

let prop_json_round_trip =
  Q.Test.make ~name:"json of_string inverts to_string" ~count:500
    (Q.make ~print:Json.to_string json_gen)
    (fun v -> Json.of_string (Json.to_string v) = v)

(* Inputs and what [of_string] made of them before the parser read by
   index: the compact rendering of the value, or the [Parse_error]
   message with its offset. *)
let json_cases =
  [
    ("", Error "unexpected end of input at offset 0");
    (" ", Error "unexpected end of input at offset 1");
    ("nul", Error "expected null at offset 0");
    ("tru", Error "expected true at offset 0");
    ("fals", Error "expected false at offset 0");
    ("nulll", Error "trailing garbage at offset 4");
    ("tx", Error "expected true at offset 0");
    ("@", Error "unexpected '@' at offset 0");
    ("\000", Error "unexpected '\000' at offset 0");
    ("+1", Error "unexpected '+' at offset 0");
    ("--1", Error "bad number at offset 3");
    ("-", Error "bad number at offset 1");
    ("1.2.3", Error "bad number at offset 5");
    ("1e", Error "bad number at offset 2");
    ("01", Ok "1");
    ("1x", Error "trailing garbage at offset 1");
    ("[1]x", Error "trailing garbage at offset 3");
    ("{\"a\":1} x", Error "trailing garbage at offset 8");
    ("[", Error "unexpected end of input at offset 1");
    ("[1", Error "expected ',' or ']' at offset 2");
    ("[1,2", Error "expected ',' or ']' at offset 4");
    ("[1 2]", Error "expected ',' or ']' at offset 3");
    ("[,1]", Error "unexpected ',' at offset 1");
    ("[1,]", Error "unexpected ']' at offset 3");
    ("{", Error "expected '\"' at offset 1");
    ("{\"a\"", Error "expected ':' at offset 4");
    ("{\"a\" 1}", Error "expected ':' at offset 5");
    ("{\"a\":}", Error "unexpected '}' at offset 5");
    ("{\"a\":1,}", Error "expected '\"' at offset 7");
    ("{a:1}", Error "expected '\"' at offset 1");
    ("{\"a\":1 \"b\":2}", Error "expected ',' or '}' at offset 7");
    ("\"", Error "unterminated string at offset 1");
    ("\"abc", Error "unterminated string at offset 4");
    ("\"a\\", Error "bad escape at offset 3");
    ("\"a\\x\"", Error "bad escape at offset 3");
    ("\"\\u12\"", Error "truncated \\u at offset 3");
    ("\"\\u12g4\"", Error "bad \\u escape at offset 3");
    ("\"\\u1_23\"", Ok "\"\196\163\"");
    ("\"\\u00e9\"", Ok "\"\195\169\"");
    ("\"\\uD800\"", Ok "\"\237\160\128\"");
    ("\"\\u0041\\n\\t\\\"\\\\\\/\\b\\f\\r\"", Ok "\"A\\n\\t\\\"\\\\/\\u0008\\u000c\\r\"");
    ("\"caf\195\169\"", Ok "\"caf\195\169\"");
    ("\"tab\there\"", Ok "\"tab\\there\"");
    ("  [ 1 , -2.5e3 , true , false , null , \"x\" , { } , [ ] ]  ", Ok "[1,-2500,true,false,null,\"x\",{},[]]");
    ("99999999999999999999", Ok "1e+20");
    ("1E400", Ok "null");
    ("{\"a\":{\"b\":[1,{\"c\":\"\\u0000\"}]}}", Ok "{\"a\":{\"b\":[1,{\"c\":\"\\u0000\"}]}}");
  ]

let test_json_cases () =
  List.iter
    (fun (input, expected) ->
      let got =
        match Json.of_string input with
        | v -> Ok (Json.to_string v)
        | exception Json.Parse_error e -> Error e
      in
      let show = function Ok s -> "Ok " ^ s | Error e -> "Error " ^ e in
      Alcotest.(check string) (String.escaped input) (show expected) (show got))
    json_cases

let suite =
  [
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "gauges and fcounters" `Quick test_gauges_fcounters;
    Alcotest.test_case "histogram basics" `Quick test_histogram_basic;
    Alcotest.test_case "histogram merge = concat" `Quick test_histogram_merge;
    Alcotest.test_case "parallel counter exact" `Quick
      test_counter_parallel_exact;
    Helpers.qcheck prop_histogram_merge_order_independent;
    Alcotest.test_case "shared histogram under domains" `Quick
      test_histogram_shared_parallel;
    Alcotest.test_case "snapshot json round-trip" `Quick test_snapshot_json;
    Alcotest.test_case "trace json shape and nesting" `Quick
      test_trace_json_shape;
    Alcotest.test_case "events jsonl" `Quick test_events_jsonl;
    Alcotest.test_case "live sink is a pure observer" `Quick
      test_live_sink_is_pure_observer;
    Alcotest.test_case "step-3 seconds reach the sink" `Quick
      test_seq_seconds_in_sink;
    Alcotest.test_case "engine calls carry trace/simulate spans" `Quick
      test_engine_child_spans;
    Helpers.qcheck prop_json_round_trip;
    Alcotest.test_case "json parse results and errors" `Quick test_json_cases;
  ]
