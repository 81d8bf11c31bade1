(* The flow workloads, fsim-tail and atpg-chains: set-up, measured
   passes of [Flow.run], the output check and the traced per-phase pass.
   serve-mix reuses the check and the traced pass for its flow jobs. *)

open Fst_netlist
open Fst_tpi
open Fst_core
module Json = Fst_obs.Json
module Metrics = Fst_obs.Metrics
module Report = Fst_report.Flow_report

type phase = Step2_fsim | Step3

type spec = {
  name : string;
  entries : Fst_gen.Suite.entry list;  (** circuits, at the workload's scale *)
  reference : string;  (** committed reference reports, in [entries] order *)
  stresses : phase;  (** the phase that must dominate the flow time *)
  floor_pct : float;  (** its least share of the flow time *)
}

(* s38417 with one chain, as the CLI default runs it. At scale 0.058
   step-2 fault simulation is about 72% of the flow and one flow takes
   about 12 s; the CLI default scale 0.1 (79%) takes 76 s. The step-3
   share is chaotic in the scale (see README.md). The share swings by 3
   points between runs on a shared host, so its floor is 65%. *)
let fsim_tail =
  {
    name = "fsim-tail";
    entries =
      [ { (Fst_gen.Suite.find ~scale:0.058 "s38417") with Fst_gen.Suite.chains = 1 } ];
    reference = "perfbench/reference/fsim-tail.json";
    stresses = Step2_fsim;
    floor_pct = 65.0;
  }

(* The paper's 12 circuits at its chain counts. At scale 0.025 step 3 is
   over 90% of the flow time. *)
let atpg_chains =
  {
    name = "atpg-chains";
    entries = Fst_gen.Suite.suite ~scale:0.025 ();
    reference = "perfbench/reference/atpg-chains.json";
    stresses = Step3;
    floor_pct = 80.0;
  }

(* Lifted per-fault deadlines: only the deterministic backtrack limits
   end a search. A deadline this long cannot trip unless a flow runs at
   least as long, which [problems] fails. *)
let fault_seconds = 3600.0

let config sink =
  Config.(
    default |> with_jobs 1
    |> with_seq_fault_seconds fault_seconds
    |> with_final_fault_seconds fault_seconds
    |> with_sink sink)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* A harness span around one public call, when tracing. *)
let span trace name f =
  match trace with
  | None -> f ()
  | Some tr -> Fst_obs.Trace.with_span tr ~name ~cat:"perfbench" f

(* --- set-up ------------------------------------------------------------ *)

type circuit = { label : Relabel.t; scanned : Circuit.t; scan : Scan.config }

let insert_chains ?trace (c : Circuit.t) chains =
  span trace "Tpi.insert" (fun () ->
      let scanned, scan =
        Tpi.insert ~options:{ Tpi.default_options with Tpi.chains } c
      in
      match Scan.verify_shift scanned scan with
      | Ok () -> (scanned, scan)
      | Error _ -> failwith (c.Circuit.name ^ ": scan chains do not shift"))

type setup_times = { gen_s : float; tpi_s : float; total_s : float }

(* [Gen.generate] with the seeded relabelling, then [Tpi.insert] and
   [Scan.verify_shift], for every circuit of the workload. *)
let setup ?trace ~seed spec =
  let gen_s = ref 0.0 and tpi_s = ref 0.0 in
  let t0 = now () in
  let circuits =
    List.map
      (fun (e : Fst_gen.Suite.entry) ->
        let label, dt =
          timed (fun () ->
              span trace "Gen.generate" (fun () ->
                  Relabel.apply ~seed (Fst_gen.Gen.generate e.profile)))
        in
        gen_s := !gen_s +. dt;
        let (scanned, scan), dt =
          timed (fun () -> insert_chains ?trace label.Relabel.circuit e.chains)
        in
        tpi_s := !tpi_s +. dt;
        { label; scanned; scan })
      spec.entries
  in
  (circuits, { gen_s = !gen_s; tpi_s = !tpi_s; total_s = now () -. t0 })

(* --- output check ------------------------------------------------------ *)

(* A report with its timings zeroed and its fault names restored to the
   generator's: the form the committed reference holds. *)
let normalize label (r : Report.t) =
  let restore = List.map (Relabel.restore label) in
  {
    r with
    Report.step2_cpu_s = 0.0;
    step3_cpu_s = 0.0;
    undetected = restore r.Report.undetected;
    failed = restore r.Report.failed;
  }

let same_report a b =
  Json.to_string (Report.to_json a) = Json.to_string (Report.to_json b)

let partition_holds (r : Report.t) =
  r.Report.step2_detected + r.step3_detected + r.step2_untestable
  + r.step3_untestable + r.untestable_static
  + List.length r.undetected + r.aborted_faults + r.failed_faults
  = r.hard

(* Every reason a flow counts as failed against its expected report;
   [] when it passed. *)
let problems ~expected ~wall (r : Report.t) =
  List.filter_map
    (fun (bad, why) -> if bad then Some why else None)
    [
      (not (same_report r expected), "report differs from the expected one");
      (not (partition_holds r), "partition invariant fails");
      (r.Report.podem_aborted_deadline > 0, "a search ended on a deadline");
      (Report.budget_exhausted r, "the flow budget tripped");
      (wall >= fault_seconds, "a per-fault deadline may have tripped");
    ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_reference spec =
  let what = spec.reference in
  match Json.of_string (read_file what) with
  | Json.List l ->
    List.map
      (fun j ->
        match Report.of_json j with
        | Ok r -> r
        | Error e -> failwith (what ^ ": " ^ e))
      l
  | _ -> failwith (what ^ ": expected a list of flow reports")

let coverage_pct reports =
  let det, aff =
    List.fold_left
      (fun (d, a) (r : Report.t) ->
        (d + r.Report.easy + r.step2_detected + r.step3_detected, a + r.affecting))
      (0, 0) reports
  in
  100.0 *. float_of_int det /. float_of_int (max 1 aff)

(* --- running flows ----------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

(* One [Flow.run], checked against [expected]. Returns the normalized
   report and the wall time, or [None] when the flow raised. *)
let run_flow ?trace ~tally ~sink c ~expected =
  tally.attempted <- tally.attempted + 1;
  match
    timed (fun () ->
        span trace "Flow.run" (fun () ->
            Flow.run ~config:(config sink) c.scanned c.scan))
  with
  | exception e ->
    tally.failed <- tally.failed + 1;
    Printf.eprintf "perfbench: %s: Flow.run raised %s\n%!"
      c.scanned.Circuit.name (Printexc.to_string e);
    None
  | res, wall ->
    let report = normalize c.label (Report.of_result res) in
    (match problems ~expected ~wall report with
     | [] -> ()
     | why ->
       tally.failed <- tally.failed + 1;
       Printf.eprintf "perfbench: %s: %s\n%!" report.Report.circuit
         (String.concat "; " why));
    Some (report, wall)

(* One untraced pass over [jobs] ((circuit, expected report) pairs):
   the summed flow wall and the reports. *)
let pass ~tally jobs =
  List.fold_left
    (fun (wall, reports) (c, expected) ->
      match run_flow ~tally ~sink:Fst_obs.Sink.null c ~expected with
      | None -> (wall, reports)
      | Some (r, w) -> (wall +. w, r :: reports))
    (0.0, []) jobs

let seeded_order ~seed n =
  let a = Array.init n Fun.id in
  Relabel.shuffle (Fst_gen.Rng.create (Int64.of_int (seed + 101))) a;
  Array.to_list a

(* --- the traced pass --------------------------------------------------- *)

(* Per-layer totals over one traced pass, from the library's own sink:
   phase wall gauges, fault-sim and static-analysis counters, and the
   ATPG accounting of the reports. *)
type layers = {
  mutable flow_s : float;  (** summed [Flow.run] wall *)
  mutable classify_s : float;
  mutable sca_s : float;
  mutable step2_atpg_s : float;
  mutable step2_fsim_s : float;
  mutable step3_s : float;
  mutable fsim_calls : int;  (** [Fsim.Engine] calls, all phases *)
  mutable fsim_blocks : int;  (** step-2 stimulus blocks simulated *)
  mutable fsim_fault_blocks : int;  (** step-2 (fault, block) pairs *)
  mutable step2_detected : int;
  mutable sca_implications : int;
  mutable seq_runs : int;
  mutable seq_backtracks : int;
  mutable podem_runs : int;
  mutable podem_backtracks : int;
  mutable atpg_aborts : int;
}

let no_layers () =
  {
    flow_s = 0.0;
    classify_s = 0.0;
    sca_s = 0.0;
    step2_atpg_s = 0.0;
    step2_fsim_s = 0.0;
    step3_s = 0.0;
    fsim_calls = 0;
    fsim_blocks = 0;
    fsim_fault_blocks = 0;
    step2_detected = 0;
    sca_implications = 0;
    seq_runs = 0;
    seq_backtracks = 0;
    podem_runs = 0;
    podem_backtracks = 0;
    atpg_aborts = 0;
  }

(* Sum of the [fsim.<engine><suffix>] counters. *)
let fsim_counter m suffix =
  List.fold_left
    (fun acc (name, v) ->
      match v with
      | Metrics.Counter_v n
        when String.starts_with ~prefix:"fsim." name
             && String.ends_with ~suffix name ->
        acc + n
      | _ -> acc)
    0 (Metrics.snapshot m)

(* A live sink for one flow. The step-2 share of the fault-sim counters
   is read at that phase's start and end events. *)
let traced_sink trace =
  let m = Metrics.create () in
  let at_start = ref 0 and in_step2 = ref 0 in
  let on_event line =
    match Json.of_string line with
    | j -> (
      match (Json.member "kind" j, Json.member "phase" j) with
      | Some (Json.String "phase_start"), Some (Json.String "step2-fsim") ->
        at_start := fsim_counter m ".faults"
      | Some (Json.String "phase_end"), Some (Json.String "step2-fsim") ->
        in_step2 := fsim_counter m ".faults" - !at_start
      | _ -> ())
    | exception Json.Parse_error _ -> ()
  in
  let sink =
    Fst_obs.Sink.create ~metrics:m ~trace
      ~events:(Fst_obs.Events.to_callback on_event)
      ()
  in
  (sink, m, in_step2)

let add_layers l ~m ~step2_faults ~wall (r : Report.t) =
  let g name = Metrics.Gauge.value (Metrics.gauge m ("flow." ^ name ^ ".wall_s")) in
  let c name = Metrics.Counter.value (Metrics.counter m name) in
  l.flow_s <- l.flow_s +. wall;
  l.classify_s <- l.classify_s +. g "classify";
  l.sca_s <- l.sca_s +. g "sca";
  l.step2_atpg_s <- l.step2_atpg_s +. g "step2-atpg";
  l.step2_fsim_s <- l.step2_fsim_s +. g "step2-fsim";
  l.step3_s <- l.step3_s +. g "step3";
  l.fsim_calls <- l.fsim_calls + fsim_counter m ".calls";
  l.fsim_blocks <- l.fsim_blocks + c "flow.step2.blocks";
  l.fsim_fault_blocks <- l.fsim_fault_blocks + step2_faults;
  l.step2_detected <- l.step2_detected + r.Report.step2_detected;
  l.sca_implications <- l.sca_implications + c "sca.implications";
  l.seq_runs <- l.seq_runs + r.Report.seq_runs;
  l.seq_backtracks <- l.seq_backtracks + r.Report.seq_backtracks;
  l.podem_runs <- l.podem_runs + r.Report.podem_runs;
  l.podem_backtracks <- l.podem_backtracks + r.Report.podem_backtracks;
  l.atpg_aborts <- l.atpg_aborts + Report.atpg_aborts r

type traced = {
  layers : layers;
  untraced_s : float;  (** the same flows without a sink *)
  gc_minor : int;
  gc_major : int;
  gc_top_heap_words : int;
}

(* The same flows untraced, then traced: the per-layer numbers come from
   the traced flows, and the wall difference is the tracing overhead.
   The traced reports are checked against the same expected reports. *)
let traced_pass ~tally ~trace jobs =
  let untraced_s, _ = pass ~tally jobs in
  let l = no_layers () in
  let g0 = Gc.quick_stat () in
  List.iter
    (fun (c, expected) ->
      let sink, m, step2_faults = traced_sink trace in
      match run_flow ~trace ~tally ~sink c ~expected with
      | None -> ()
      | Some (r, wall) -> add_layers l ~m ~step2_faults:!step2_faults ~wall r)
    jobs;
  let g1 = Gc.quick_stat () in
  {
    layers = l;
    untraced_s;
    gc_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
    gc_top_heap_words = g1.Gc.top_heap_words;
  }

let share part l = 100.0 *. part /. Float.max 1e-9 l.flow_s

(* The phase-share guard: a workload that stops stressing its phase
   fails the traced run instead of being kept silently. The other of the
   two phases must stay at most 20% of the flow time. *)
let guard spec l =
  let s2 = ("step-2 fault simulation", share l.step2_fsim_s l)
  and s3 = ("step 3", share l.step3_s l) in
  let stressed, other =
    match spec.stresses with Step2_fsim -> (s2, s3) | Step3 -> (s3, s2)
  in
  let need (what, v) ok limit =
    if ok then []
    else [ Printf.sprintf "%s is %.1f%% of flow time (limit %g%%)" what v limit ]
  in
  need stressed (snd stressed >= spec.floor_pct) spec.floor_pct
  @ need other (snd other <= 20.0) 20.0

(* --- process measurements ---------------------------------------------- *)

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> failwith "VmHWM missing from /proc status"
    | l when String.starts_with ~prefix:"VmHWM:" l ->
      Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* [Netfile.parse_string] plus [Cache.netlist_hash] — the daemon's work
   for a cache hit — averaged over [texts], each the median of five
   repeats. In ms. *)
let hitpath_ms texts =
  let one text =
    Stats.median
      (Array.init 5 (fun _ ->
           snd
             (timed (fun () ->
                  Fst_serve.Cache.netlist_hash (Netfile.parse_string text)))))
  in
  let total = List.fold_left (fun acc t -> acc +. one t) 0.0 texts in
  1e3 *. total /. float_of_int (max 1 (List.length texts))
