(* perfbench: the repository benchmark. One command runs one named
   workload, checks its outputs, and prints every metric BENCHMARK.json
   declares, by name and unit, as the last line of standard output.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --self-test
     perfbench --write-reference fsim-tail|atpg-chains

   With --trace 0 the metrics are the end-to-end ones; --trace 1 runs
   the same work with the library's observability sink attached and
   prints the per-layer ones. See README.md. *)

module Json = Fst_obs.Json

let default_seed = 1

(* --- what BENCHMARK.json declares -------------------------------------- *)

let declared () =
  let j = Json.of_string (Flows.read_file "BENCHMARK.json") in
  let metrics key =
    match Json.member key j with
    | Some (Json.List l) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> (n, u)
          | _ -> failwith ("BENCHMARK.json: malformed " ^ key ^ " entry"))
        l
    | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")
  in
  (metrics "end_to_end", metrics "per_layer")

(* --- one run ----------------------------------------------------------- *)

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** run-level check failures *)
  metrics : (string * float) list;
  pass_walls : float list;  (** measured passes, in run order *)
}

let pct part whole = 100.0 *. (part -. whole) /. Float.max 1e-9 whole

(* Per-layer metrics of the flows a traced pass ran. *)
let flow_layers ~gen_s ~tpi_s (t : Flows.traced) =
  let l = t.Flows.layers in
  let f = float_of_int in
  [
    ("setup.gen_s", gen_s);
    ("setup.tpi_s", tpi_s);
    ("flow.classify_s", l.classify_s);
    ("flow.sca_s", l.sca_s);
    ("flow.step2-atpg_s", l.step2_atpg_s);
    ("flow.step2-fsim_s", l.step2_fsim_s);
    ("flow.step3_s", l.step3_s);
    ("flow.step2-fsim_pct", Flows.share l.step2_fsim_s l);
    ("flow.step3_pct", Flows.share l.step3_s l);
    ("fsim.calls", f l.fsim_calls);
    ("fsim.blocks", f l.fsim_blocks);
    ("fsim.fault_blocks", f l.fsim_fault_blocks);
    ( "fsim.useful_ratio",
      f l.step2_detected /. Float.max 1.0 (f l.fsim_fault_blocks) );
    ("podem.runs", f l.podem_runs);
    ("podem.backtracks", f l.podem_backtracks);
    ("seq.runs", f l.seq_runs);
    ("seq.backtracks", f l.seq_backtracks);
    ("atpg.aborts", f l.atpg_aborts);
    ("sca.implications", f l.sca_implications);
    ("gc.minor_collections", f t.gc_minor);
    ("gc.major_collections", f t.gc_major);
    ("gc.heap_words", f t.gc_top_heap_words);
    ("trace_overhead_pct", pct l.flow_s t.untraced_s);
  ]

(* The serve-layer metrics a flow workload has no daemon for. *)
let no_serve ~hitpath_ms =
  [
    ("serve.latency_p50_ms", 0.0);
    ("serve.latency_p99_ms", 0.0);
    ("serve.hit_p50_ms", 0.0);
    ("serve.wait_p50_ms", 0.0);
    ("serve.hitpath_ms", hitpath_ms);
    ("serve.miss_flow_p50_ms", 0.0);
    ("serve.miss_sca_p50_ms", 0.0);
    ("serve.miss_lint_p50_ms", 0.0);
    ("serve.hit_ratio", 0.0);
    ("serve.evictions", 0.0);
  ]

let setup_repeats = 9

let flow_workload ?trace ~seed ~seconds (spec : Flows.spec) =
  let setups = List.init setup_repeats (fun _ -> Flows.setup ?trace ~seed spec) in
  let circuits, _ = List.nth setups (setup_repeats - 1) in
  let med f = Stats.median (Array.of_list (List.map (fun (_, t) -> f t) setups)) in
  let setup_s = med (fun t -> t.Flows.total_s) in
  let reference = Flows.load_reference spec in
  if List.length reference <> List.length circuits then
    failwith (spec.Flows.reference ^ ": one report per circuit expected");
  let jobs =
    List.map
      (fun i -> (List.nth circuits i, List.nth reference i))
      (Flows.seeded_order ~seed (List.length circuits))
  in
  let tally = Flows.tally () in
  match trace with
  | None ->
    (* Passes until the next one would not fit in [seconds]; at least one. *)
    let t0 = Unix.gettimeofday () in
    let rec loop walls =
      let w, reports = Flows.pass ~tally jobs in
      let walls = w :: walls in
      if Unix.gettimeofday () -. t0 +. w <= float_of_int seconds then loop walls
      else (walls, reports)
    in
    let walls, reports = loop [] in
    {
      attempted = tally.attempted;
      failed = tally.failed;
      problems = [];
      pass_walls = List.rev walls;
      metrics =
        [
          ("wall_s", Stats.median (Array.of_list walls));
          ("setup_s", setup_s);
          ("peak_rss_mb", Flows.peak_rss_mb "self");
          ("chain_coverage_pct", Flows.coverage_pct reports);
        ];
    }
  | Some trace ->
    let t = Flows.traced_pass ~tally ~trace jobs in
    let hitpath_ms =
      Flows.hitpath_ms
        (List.map
           (fun c -> Fst_netlist.Netfile.to_string c.Flows.label.Relabel.circuit)
           circuits)
    in
    {
      attempted = tally.attempted;
      failed = tally.failed;
      problems = Flows.guard spec t.layers;
      pass_walls = [ t.layers.flow_s ];
      metrics =
        flow_layers ~gen_s:(med (fun t -> t.Flows.gen_s))
          ~tpi_s:(med (fun t -> t.Flows.tpi_s)) t
        @ no_serve ~hitpath_ms;
    }

let serve_workload ?trace ~seed ~seconds () =
  let module S = Serve_mix in
  let r = S.run ?trace ~seed ~seconds:(float_of_int seconds) () in
  let requests = S.requests r in
  let failed = List.length (List.filter (fun q -> not q.S.ok) requests) in
  let med f = Stats.median (Array.of_list (List.map f r.S.setups)) in
  let pass_walls = List.map (fun p -> p.S.wall_s) r.S.passes in
  let p n a =
    match Stats.percentile n a with
    | Ok v -> v
    | Error e -> failwith ("serve-mix: " ^ e)
  in
  let all = S.latencies_ms (fun _ -> true) r in
  let flows = S.flow_reports r in
  let hit_ratio = S.measured_hit_ratio r and planned = S.planned_hit_ratio r in
  let problems =
    if hit_ratio = planned then []
    else [ Printf.sprintf "hit ratio %.4f, planned %.4f" hit_ratio planned ]
  in
  let tally = Flows.tally () in
  let metrics =
    match trace with
    | None ->
      [
        ("wall_s", Stats.median (Array.of_list pass_walls));
        ("setup_s", med (fun s -> s.S.setup_s));
        ( "peak_rss_mb",
          Stats.median
            (Array.of_list (List.map (fun p -> p.S.peak_rss_mb) r.S.passes)) );
        ("chain_coverage_pct", Flows.coverage_pct (List.map snd flows));
      ]
    | Some trace ->
      (* The flow jobs again, in process, to attribute their time to the
         library's layers; each must reproduce the daemon's report. *)
      let t0 = Unix.gettimeofday () in
      let jobs =
        List.map
          (fun ((nl : S.netlist), rep) ->
            let scanned, scan =
              Flows.insert_chains ~trace
                (Fst_netlist.Netfile.parse_string ~name:nl.S.profile.Fst_gen.Gen.name nl.S.text)
                1
            in
            ({ Flows.label = nl.S.label; scanned; scan }, Flows.normalize nl.S.label rep))
          flows
      in
      let tpi_s = Unix.gettimeofday () -. t0 in
      let t = Flows.traced_pass ~tally ~trace jobs in
      let ms pred = p 50 (S.latencies_ms pred r) in
      flow_layers ~gen_s:(med (fun s -> s.S.render_s)) ~tpi_s t
      @ [
          ("serve.latency_p50_ms", p 50 all);
          ("serve.latency_p99_ms", p 99 all);
          ("serve.hit_p50_ms", ms (fun q -> q.S.expect_cached));
          ( "serve.wait_p50_ms",
            p 50
              (Array.of_list
                 (List.map
                    (fun q -> 1e3 *. (q.S.latency_s -. q.S.elapsed_s))
                    requests)) );
          ( "serve.hitpath_ms",
            Flows.hitpath_ms (List.map (fun nl -> nl.S.text) (S.rendered r)) );
          ( "serve.miss_flow_p50_ms",
            ms (fun q -> (not q.S.expect_cached) && q.S.kind = Fst_serve.Protocol.Flow) );
          ( "serve.miss_sca_p50_ms",
            ms (fun q -> (not q.S.expect_cached) && q.S.kind = Fst_serve.Protocol.Sca) );
          ( "serve.miss_lint_p50_ms",
            ms (fun q -> (not q.S.expect_cached) && q.S.kind = Fst_serve.Protocol.Lint) );
          ("serve.hit_ratio", hit_ratio);
          ( "serve.evictions",
            float_of_int
              (List.fold_left (fun n p -> n + p.S.evictions) 0 r.S.passes) );
        ]
  in
  {
    attempted = List.length requests + tally.attempted;
    failed = failed + tally.failed;
    problems;
    pass_walls;
    metrics;
  }

(* --- command line ------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
    \       perfbench --self-test\n\
    \       perfbench --write-reference fsim-tail|atpg-chains";
  exit 2

let flow_spec = function
  | "fsim-tail" -> Some Flows.fsim_tail
  | "atpg-chains" -> Some Flows.atpg_chains
  | _ -> None

let workloads = [ "fsim-tail"; "atpg-chains"; "serve-mix" ]

(* The reference holds each circuit's report under the default seed, in
   the workload's circuit order. *)
let write_reference spec =
  let circuits, _ = Flows.setup ~seed:default_seed spec in
  let reports =
    List.map
      (fun (c : Flows.circuit) ->
        let res =
          Fst_core.Flow.run ~config:(Flows.config Fst_obs.Sink.null)
            c.Flows.scanned c.Flows.scan
        in
        Fst_report.Flow_report.to_json
          (Flows.normalize c.Flows.label (Fst_report.Flow_report.of_result res)))
      circuits
  in
  let oc = open_out_bin spec.Flows.reference in
  output_string oc (Json.to_string (Json.List reports));
  output_char oc '\n';
  close_out oc

let run_workload ~workload ~seed ~seconds ~traced =
  let e2e, layers = declared () in
  let want = if traced then layers else e2e in
  let self = Selftest.run ~seed ~declared:(List.map fst (e2e @ layers)) in
  List.iter (fun f -> Printf.eprintf "perfbench: self-test failed: %s\n%!" f) self;
  let trace = if traced then Some (Fst_obs.Trace.create ()) else None in
  let o =
    match (flow_spec workload, workload) with
    | Some spec, _ -> flow_workload ?trace ~seed ~seconds spec
    | None, "serve-mix" -> serve_workload ?trace ~seed ~seconds ()
    | None, _ -> usage ()
  in
  (* What is printed must be exactly what BENCHMARK.json declares. *)
  let got = List.sort compare (List.map fst o.metrics) in
  if got <> List.sort compare (List.map fst want) then
    failwith "metrics printed differ from the ones BENCHMARK.json declares";
  (match trace with
   | None -> ()
   | Some tr ->
     let path = Printf.sprintf ".perfbench/trace-%s-%d.json" workload seed in
     if not (Sys.file_exists ".perfbench") then Unix.mkdir ".perfbench" 0o755;
     let oc = open_out_bin path in
     Json.to_channel oc (Fst_obs.Trace.to_json tr);
     close_out oc);
  List.iter (fun p -> Printf.eprintf "perfbench: check failed: %s\n%!" p) o.problems;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ( "perfbench",
              Json.Obj
                [
                  ("workload", Json.String workload);
                  ("seed", Json.Int seed);
                  ("default_seed", Json.Int default_seed);
                  ("seconds", Json.Int seconds);
                  ("trace", Json.Bool traced);
                  ("pass_walls", Json.List (List.map (fun w -> Json.Float w) o.pass_walls));
                  ("nproc", Json.Int (Domain.recommended_domain_count ()));
                  ( "jobs_effective",
                    Json.Int
                      (Fst_exec.Pool.effective_jobs
                         ~jobs:(Flows.config Fst_obs.Sink.null).Fst_core.Config.jobs
                         max_int) );
                ] );
          ]));
  print_endline
    (Stats.result_line
       ~correct:(o.failed = 0 && o.problems = [] && self = [])
       ~attempted:(max 1 o.attempted) ~failed:o.failed
       (List.map
          (fun (name, value) ->
            { Stats.name; unit_ = List.assoc name want; value })
          o.metrics))

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "--self-test" ] ->
    let e2e, layers = declared () in
    let failures =
      Selftest.run ~seed:default_seed ~declared:(List.map fst (e2e @ layers))
    in
    List.iter (fun f -> Printf.printf "FAIL %s\n" f) failures;
    if failures = [] then print_endline "self-test ok" else exit 1
  | [ "--write-reference"; w ] -> (
    match flow_spec w with Some spec -> write_reference spec | None -> usage ())
  | _ ->
    let rec parse acc = function
      | [] -> acc
      | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((flag, v) :: acc) rest
      | _ -> usage ()
    in
    let kv = parse [] args in
    let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    if List.length kv <> 4 then usage ();
    let workload = get "--workload" in
    if not (List.mem workload workloads) then usage ();
    let traced =
      match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
    in
    let seconds = int "--seconds" in
    if seconds < 1 then usage ();
    run_workload ~workload ~seed:(int "--seed") ~seconds ~traced
