(* The [fst] executable's argument handling, driven as a subprocess. *)

(* Removed options fail in the parser with the usage error (exit 2, usage
   line on stderr) before any work starts, any file is written or any
   daemon is contacted: [--metrics] ([--obs-dir] is the flow's one
   artifact writer) and [--engine] (the fault-simulation back-end is
   picked per fault, not by the caller). *)
let test_flow_rejects_metrics () =
  let rejects cmd args ~option =
    let code, _, stderr = Helpers.run_fst (cmd :: args) in
    Alcotest.(check int) (cmd ^ " " ^ option ^ ": usage-error exit code") 2 code;
    Alcotest.(check bool)
      ("structured error: " ^ stderr)
      true
      (Helpers.contains_substring
         ~needle:(Printf.sprintf "fst %s: unknown option %s" cmd option)
         stderr
      && Helpers.contains_substring ~needle:("usage: fst " ^ cmd) stderr);
    Alcotest.(check bool) "no exception escaped" false
      (Helpers.contains_substring ~needle:"exception" stderr)
  in
  let out = Filename.concat (Filename.get_temp_dir_name ()) "fst-cli-x.json" in
  rejects "flow"
    [ "-n"; "s1423"; "--scale"; "0.05"; "--metrics"; out ]
    ~option:"--metrics";
  Alcotest.(check bool) "nothing written" false (Sys.file_exists out);
  rejects "flow"
    [ "-n"; "s1423"; "--scale"; "0.05"; "--engine"; "auto" ]
    ~option:"--engine";
  rejects "submit"
    [ "-n"; "s1423"; "--scale"; "0.05"; "--engine"; "auto" ]
    ~option:"--engine"

(* A netlist without flip-flops has nothing to scan: every command that
   inserts chains reports it as an error naming the file (exit 1), and
   `fst lint` as an error diagnostic, never as an escaped exception. *)
let test_no_flip_flops () =
  let file = Filename.temp_file "fst-cli-noff" ".net" in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () ->
      let oc = open_out file in
      output_string oc "INPUT(a)\nOUTPUT(a)\n";
      close_out oc;
      let no_exception what stderr =
        Alcotest.(check bool) (what ^ ": no exception escaped: " ^ stderr)
          false
          (Helpers.contains_substring ~needle:"xception" stderr)
      in
      List.iter
        (fun cmd ->
          let code, _, stderr = Helpers.run_fst [ cmd; file; "-c"; "1" ] in
          Alcotest.(check int) (cmd ^ ": exit code") 1 code;
          Alcotest.(check bool)
            (cmd ^ ": error names the file: " ^ stderr)
            true
            (Helpers.contains_substring
               ~needle:("fst: " ^ file ^ ": circuit has no flip-flops")
               stderr);
          no_exception cmd stderr)
        [ "flow"; "sca"; "tpi"; "alt" ];
      let code, stdout, stderr = Helpers.run_fst [ "lint"; file; "-c"; "1" ] in
      Alcotest.(check int) "lint: exit code" 1 code;
      Alcotest.(check bool)
        ("lint: error diagnostic: " ^ stdout)
        true
        (Helpers.contains_substring ~needle:"E-SCAN-SHAPE" stdout
        && Helpers.contains_substring ~needle:"no flip-flops" stdout);
      no_exception "lint" stderr)

(* `fst lint` and `fst tpi` take a suite circuit by name, as `flow` and
   `sca` do, and agree with the same circuit written to a file by
   `fst gen`. Lint diagnostics on a named circuit carry no file, so only
   what follows the location is compared. *)
let test_lint_tpi_by_name () =
  let file = Filename.temp_file "fst-cli-s1423" ".net" in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () ->
      let suite = [ "-n"; "s1423"; "--scale"; "0.05" ] in
      let ok what (code, stdout, stderr) =
        Alcotest.(check int) (what ^ ": exit code; " ^ stderr) 0 code;
        stdout
      in
      ignore (ok "gen" (Helpers.run_fst ([ "gen" ] @ suite @ [ "-o"; file ])));
      (* Each diagnostic from its severity on; the summary line is dropped. *)
      let from_severity line =
        List.filter_map
          (fun sev -> Helpers.find_substring ~needle:sev line)
          [ "error "; "warning "; "info " ]
        |> List.sort compare
        |> function
        | [] -> None
        | i :: _ -> Some (String.sub line i (String.length line - i))
      in
      let lint args =
        String.split_on_char '\n'
          (ok "lint" (Helpers.run_fst ([ "lint"; "-c"; "2" ] @ args)))
        |> List.filter_map from_severity
      in
      let by_name = lint suite and by_file = lint [ file ] in
      Alcotest.(check bool) "lint by name reports findings" true
        (List.length by_name > 1);
      Alcotest.(check (list string)) "lint: name = file" by_file by_name;
      Alcotest.(check (list string)) "lint: a file wins over a name" by_file
        (lint [ file; "-n"; "s5378" ]);
      (* The report starts with the circuit name, which a file takes from
         its base name. *)
      let tpi args =
        let out = ok "tpi" (Helpers.run_fst ([ "tpi"; "-c"; "2" ] @ args)) in
        let i = String.index out ':' in
        String.sub out i (String.length out - i)
      in
      Alcotest.(check string) "tpi: name = file" (tpi [ file ]) (tpi suite);
      let code, _, stderr = Helpers.run_fst [ "tpi"; "-n"; "nope" ] in
      Alcotest.(check int) "tpi: unknown name exit code" 1 code;
      Alcotest.(check bool) ("tpi: unknown name: " ^ stderr) true
        (Helpers.contains_substring ~needle:"unknown suite circuit" stderr))

let suite =
  [
    Alcotest.test_case "lint and tpi take a suite circuit by name" `Quick
      test_lint_tpi_by_name;
    Alcotest.test_case "netlist without flip-flops is a clean error" `Quick
      test_no_flip_flops;
    Alcotest.test_case "flow rejects --metrics as unknown option" `Quick
      test_flow_rejects_metrics;
  ]
