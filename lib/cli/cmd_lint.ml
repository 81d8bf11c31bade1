open Fst_netlist
open Fst_tpi
module Lint = Fst_lint.Lint
module Diagnostic = Fst_lint.Diagnostic

let spec =
  Spec.make ~name:"lint"
    ~summary:"Statically analyze a netlist and its scan-DFT configuration"
    ~args:
      [
        Common.name_arg;
        Common.scale_arg;
        Common.chains_arg;
        Spec.flag_arg [ "--no-scan" ]
          ~doc:"Structural and testability rules only; skip TPI insertion \
                and the scan-DFT rules.";
        Spec.flag_arg [ "--json" ]
          ~doc:"Emit the report as JSON instead of text.";
        Spec.value_arg [ "--fail-on" ] ~docv:"SEV"
          ~doc:"Exit nonzero when findings of severity SEV or worse remain \
                after waivers: error (default), warning, or none.";
        Spec.value_arg [ "--waiver" ] ~docv:"PATH"
          ~doc:"Waiver (baseline) file: one diagnostic key per line, '#' \
                comments. Matching findings are reported as waived and do \
                not gate the exit status.";
        Spec.flag_arg [ "--update-waiver" ]
          ~doc:"Rewrite the --waiver file to cover every current finding, \
                then exit 0.";
        Spec.flag_arg [ "--rules" ] ~doc:"List the rule catalogue.";
      ]
    ~pos:Common.file_pos ()

let print_report ~json report =
  if json then (
    Fst_obs.Json.to_channel stdout (Lint.to_json report);
    print_newline ())
  else print_string (Lint.render report)

let fail_on_of p =
  match Option.value ~default:"error" (Spec.string_opt p "--fail-on") with
  | "error" -> Lint.Fail_error
  | "warning" -> Lint.Fail_warning
  | "none" -> Lint.Fail_never
  | s ->
    Spec.usage_error "--fail-on expects error, warning or none, got %S" s

(* Lint a netlist file or a suite circuit (a file wins over a name): raw-
   parse first so duplicate definitions and combinational cycles are all
   reported (elaboration would abort on the first); when the raw netlist
   is clean, elaborate, optionally insert the scan chains, and run the
   full rule set with the dynamic shift check cross-checking the static
   sensitization analysis. A suite circuit is raw-parsed from its rendered
   text, so the raw rules run on it too; its diagnostics name no file. *)
let run p =
  if Spec.flag p "--rules" then begin
    List.iter
      (fun (rule, severity, desc) ->
        Printf.printf "%-18s %-8s %s\n" rule
          (Diagnostic.severity_to_string severity)
          desc)
      Lint.catalogue;
    0
  end
  else begin
    let file = match Spec.positional p with [ f ] -> Some f | _ -> None in
    let label, raw_name, read_text =
      match (file, Spec.string_opt p "--name") with
      | Some path, _ ->
        ( path,
          Filename.(remove_extension (basename path)),
          fun () ->
            let ic = open_in_bin path in
            let text = really_input_string ic (in_channel_length ic) in
            close_in ic;
            text )
      | None, name ->
        let circuit =
          Common.or_die
            (Common.load ~name ~scale:(Spec.float p "--scale" ~default:1.0)
               ~file:None)
        in
        (circuit.Circuit.name, circuit.Circuit.name, fun () ->
          Netfile.to_string circuit)
    in
    let chains = Common.chains p in
    let waiver_path = Spec.string_opt p "--waiver" in
    let waivers =
      match waiver_path with
      | Some w -> Lint.Waiver.load w
      | None -> Lint.Waiver.empty
    in
    let parse_diag message =
      Diagnostic.make ~rule:"E-NET-PARSE" ~severity:Diagnostic.Error
        ~loc:{ Diagnostic.no_loc with Diagnostic.file = file }
        message
    in
    let report =
      match Netfile.parse_raw ~name:raw_name ?file (read_text ()) with
      | exception Sys_error e ->
        { Lint.circuit = label; diagnostics = [ parse_diag e ]; waived = [];
          errors = 1; warnings = 0; infos = 0 }
      | exception Netfile.Parse_error { file = _; line; message } ->
        let d =
          Diagnostic.make ~rule:"E-NET-PARSE" ~severity:Diagnostic.Error
            ~loc:{ Diagnostic.no_loc with Diagnostic.file = file;
                   line = Some line }
            message
        in
        { Lint.circuit = label; diagnostics = [ d ]; waived = [];
          errors = 1; warnings = 0; infos = 0 }
      | raw ->
        let pre = Lint.run_raw ~waivers raw in
        if pre.Lint.errors > 0 then pre
        else begin
          match Netfile.elaborate raw with
          | exception Circuit.Malformed message ->
            { Lint.circuit = raw.Netfile.raw_name;
              diagnostics = [ parse_diag message ]; waived = [];
              errors = 1; warnings = 0; infos = 0 }
          | circuit ->
            let lines = raw.Netfile.raw_lines in
            if Spec.flag p "--no-scan" then
              Lint.run ~lines ?file ~waivers circuit
            else
              match Tpi.insert_checked ~chains circuit with
              | Error (Tpi.No_flip_flops as e) ->
                let d =
                  Diagnostic.make ~rule:"E-SCAN-SHAPE"
                    ~severity:Diagnostic.Error
                    ~loc:{ Diagnostic.no_loc with Diagnostic.file = file }
                    (Tpi.insert_error_message e
                     ^ " (--no-scan lints the netlist alone)")
                in
                { Lint.circuit = raw.Netfile.raw_name; diagnostics = [ d ];
                  waived = []; errors = 1; warnings = 0; infos = 0 }
              | Ok (scanned, config)
              | Error (Tpi.Shift_broken (scanned, config, _)) ->
                (* The dynamic check re-runs the shift test and reports
                   each failed position as an E-SCAN-SHIFT diagnostic. *)
                Lint.run ~lines ?file ~config ~dynamic:true ~waivers
                  scanned
        end
    in
    match (Spec.flag p "--update-waiver", waiver_path) with
    | true, Some w ->
      Lint.Waiver.save w (report.Lint.diagnostics @ report.Lint.waived);
      Printf.printf "waiver file %s updated (%d key(s))\n" w
        (List.length report.Lint.diagnostics + List.length report.Lint.waived);
      0
    | true, None -> Common.or_die (Error "--update-waiver requires --waiver PATH")
    | false, _ ->
      print_report ~json:(Spec.flag p "--json") report;
      if Lint.gate ~fail_on:(fail_on_of p) report then 0 else 1
  end
