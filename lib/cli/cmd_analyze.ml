module Analyze = Fst_obs.Analyze

let spec =
  Spec.make ~name:"analyze"
    ~summary:
      "Analyze a run-artifact directory: critical path, per-domain \
       utilization, hotspots, and baseline regression gating"
    ~args:
      [
        Spec.value_arg [ "--baseline" ] ~docv:"PATH"
          ~doc:"Compare against PATH: another --obs-dir directory or its \
                run.json file. Exits 1 when any gated metric regresses \
                past the threshold.";
        Spec.flag_arg [ "--json" ]
          ~doc:"Emit the diff as JSON instead of the human report.";
        Spec.value_arg [ "--fail-on-regression" ] ~docv:"PCT"
          ~doc:"Relative regression threshold in percent (default 20): a \
                gated time metric more than PCT% slower than the baseline \
                is a regression and fails the exit status.";
        Spec.value_arg [ "--top" ] ~docv:"K"
          ~doc:"Rows in the hotspot and critical-path tables (default 10).";
      ]
    ~pos:
      (Spec.Pos
         { docv = "DIR";
           doc = "Artifact directory written by fst flow --obs-dir.";
           required = true; all = false })
    ()

(* A baseline argument is an artifact directory or a run.json file. *)
let load_baseline path =
  if Sys.file_exists path && Sys.is_directory path then
    Result.map fst (Analyze.load_dir path)
  else Analyze.load_run path

let run p =
  let dir = List.hd (Spec.positional p) in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Spec.usage_error "%s is not a directory" dir;
  let json_out = Spec.flag p "--json" in
  let top = Spec.int p "--top" ~default:10 in
  let threshold = Spec.float p "--fail-on-regression" ~default:20.0 in
  let cur, spans = Common.or_die (Analyze.load_dir dir) in
  match Spec.string_opt p "--baseline" with
  | None ->
    if json_out then (
      Fst_obs.Json.to_channel stdout (Analyze.diff_to_json []);
      print_newline ())
    else print_string (Analyze.render_report ~k:top cur spans);
    0
  | Some b ->
    let base = Common.or_die (load_baseline b) in
    let entries = Analyze.diff ~threshold:(threshold /. 100.0) base cur in
    if json_out then (
      Fst_obs.Json.to_channel stdout (Analyze.diff_to_json entries);
      print_newline ())
    else begin
      print_string (Analyze.render_report ~k:top cur spans);
      Printf.printf "\ndiff vs %s (threshold %g%%):\n" b threshold;
      print_string (Analyze.render_diff entries)
    end;
    if Analyze.regressions entries = [] then 0 else 1
