open Fst_netlist
open Fst_core
module Flow_report = Fst_report.Flow_report

let spec =
  Spec.make ~name:"flow"
    ~summary:"Run the complete functional scan chain testing flow"
    ~args:
      [
        Common.name_arg;
        Common.scale_arg;
        Common.chains_arg;
        Common.jobs_arg;
        Spec.value_arg [ "--time-budget" ] ~docv:"S"
          ~doc:"Wall-clock budget for the whole flow, in seconds. When a \
                phase overruns its share the remaining work is cancelled \
                cooperatively and reported in the abort accounting.";
        Spec.flag_arg [ "--keep-going" ]
          ~doc:"Contain failures instead of dying on the first exception: \
                transient errors are retried, poison tasks are quarantined \
                into a failed bucket, and the flow always produces a \
                report. Without failures the report is the same as \
                under --fail-fast. The default for budgeted runs \
                (--time-budget).";
        Spec.flag_arg [ "--fail-fast" ]
          ~doc:"Stop at the first failure and exit with its error, the \
                same at every --jobs (the default for unbudgeted runs). \
                Conflicts with --keep-going.";
        Spec.value_arg [ "--chaos" ] ~docv:"SEED"
          ~doc:"Arm the deterministic chaos harness with the plan derived \
                from SEED: seeded exception/delay/cancel injections at \
                pool-task, engine and checkpoint boundaries. Same seed, \
                same injections. Robustness testing only.";
        Spec.value_arg [ "--chaos-p" ] ~docv:"P"
          ~doc:"Per-site injection probability for --chaos (default 0.02).";
        Spec.value_arg [ "--checkpoint" ] ~docv:"PATH"
          ~doc:"Persist flow progress to PATH after every phase and every \
                step-3 wave (atomic rewrite, with the previous good file \
                kept as PATH.prev).";
        Spec.flag_arg [ "--resume" ]
          ~doc:"Resume from the --checkpoint file if it matches this \
                circuit, configuration and parameter set.";
        Spec.flag_arg [ "--progress" ]
          ~doc:"Print a one-line heartbeat to stderr (phase, faults \
                done/total, detected, ETA).";
        Spec.flag_arg [ "--preflight" ]
          ~doc:"Run the static scan-DFT analyzer before phase 1 and abort \
                on any error-severity finding, so a broken configuration \
                fails fast instead of consuming the ATPG budget.";
        Spec.value_arg [ "--obs-dir" ] ~docv:"DIR"
          ~doc:"Write the full run-artifact set to DIR: trace.json \
                (Perfetto), events.jsonl, metrics.prom (OpenMetrics), and \
                run.json (per-phase wall, histogram quantiles, abort \
                accounting) for fst analyze; per-worker pool chunks are \
                trace spans.";
        Spec.flag_arg [ "--no-sca" ]
          ~doc:"Disable phase-0 static analysis: no statically-proven \
                untestable bucket. Every hard fault goes through ATPG, as \
                in the seed flow.";
      ]
    ~pos:Common.file_pos ()

(* The flow's fault accounting as JSON, appended to run.json as its
   [flow] object for readers of the artifact set ([fst analyze] itself
   does not read it). *)
let flow_accounting (t : Flow_report.t) =
  let module J = Fst_obs.Json in
  J.Obj
    [
      ("detected", J.Int (t.step2_detected + t.step3_detected));
      ("undetected", J.Int (List.length t.undetected));
      ("untestable", J.Int (t.step2_untestable + t.step3_untestable));
      ("untestable_static", J.Int t.untestable_static);
      ("aborted_faults", J.Int t.aborted_faults);
      ("failed_faults", J.Int t.failed_faults);
      ("phases", J.List (List.map Flow_report.phase_to_json t.phases));
    ]

let run p =
  let scale = Spec.float p "--scale" ~default:1.0 in
  let file = match Spec.positional p with [ f ] -> Some f | _ -> None in
  let circuit =
    Common.or_die (Common.load ~name:(Spec.string_opt p "--name") ~scale ~file)
  in
  let scanned, config =
    Common.or_die
      (Common.insert_chains ?file circuit (Common.chains p))
  in
  let progress =
    if Spec.flag p "--progress" then Some (Fst_obs.Progress.create ())
    else None
  in
  let artifacts =
    Option.map
      (fun dir -> (dir, Fst_obs.Artifacts.create ~dir))
      (Spec.string_opt p "--obs-dir")
  in
  let sink =
    match (artifacts, progress) with
    | Some (_, a), _ -> Fst_obs.Artifacts.sink ?progress a
    | None, Some _ -> Fst_obs.Sink.create ?progress ()
    | None, None -> Fst_obs.Sink.null
  in
  let on_error =
    match (Spec.flag p "--keep-going", Spec.flag p "--fail-fast") with
    | true, true -> Common.or_die (Error "--keep-going and --fail-fast conflict")
    | true, false -> Some `Keep_going
    | false, true -> Some `Fail_fast
    | false, false -> None
  in
  let cfg =
    Config.of_cli
      ~jobs:(Spec.int p "--jobs" ~default:0)
      ~scale
      ?time_budget:(Spec.float_opt p "--time-budget")
      ?on_error
      ~preflight:(Spec.flag p "--preflight")
      ~sink ()
    |> Config.with_sca_prune (not (Spec.flag p "--no-sca"))
  in
  let checkpoint = Spec.string_opt p "--checkpoint" in
  let resume = Spec.flag p "--resume" in
  if resume && checkpoint = None then
    Common.or_die (Error "--resume requires --checkpoint PATH");
  let chaos = Spec.int_opt p "--chaos" in
  let chaos_p = Spec.float p "--chaos-p" ~default:0.02 in
  (match chaos with
   | Some seed ->
     let plan = Fst_exec.Chaos.plan_of_seed ~p:chaos_p seed in
     Fst_exec.Chaos.install plan;
     Printf.eprintf "chaos: seed=%d p=%g injections=%d\n%!" seed chaos_p
       (List.length plan)
   | None -> ());
  let r =
    Flow.run ~config:cfg ?checkpoint ~resume ~on_resume:Common.print_resume
      scanned config
  in
  Fst_exec.Chaos.clear ();
  let report = Flow_report.of_result r in
  print_string (Flow_report.to_text report);
  (* Under chaos the run's one obligation is the partition invariant:
     every hard fault is accounted for exactly once, which holds when
     each report count equals its verdict count. *)
  if chaos <> None then begin
    match Flow_report.verdict_mismatches report r with
    | [] -> Printf.printf "chaos: invariant ok\n"
    | bad ->
      Common.or_die
        (Error ("chaos: invariant violated: " ^ String.concat ", " bad))
  end;
  (match artifacts with
   | Some (dir, a) ->
     let module J = Fst_obs.Json in
     let config_json =
       let head =
         [
           ("circuit", J.String scanned.Circuit.name);
           ( "jobs_effective",
             J.Int
               (Fst_exec.Pool.effective_jobs ~jobs:cfg.Config.jobs max_int) );
         ]
       in
       match Config.to_json cfg with
       | J.Obj kvs -> J.Obj (head @ kvs)
       | j -> j
     in
     Fst_obs.Artifacts.write ~config:config_json
       ~extra:[ ("flow", flow_accounting report) ]
       a;
     Printf.eprintf "obs: artifacts written to %s\n%!" dir
   | None -> ());
  0
