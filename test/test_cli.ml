(* The [fst] executable's argument handling, driven as a subprocess. *)

(* dune runs the suite from _build/default/test; the test stanza depends
   on the executable, so it is built before the suite starts. *)
let fst_exe = Filename.concat (Filename.concat ".." "bin") "fst.exe"

(* Run [fst args], returning the exit code and everything on stderr. *)
let run_fst args =
  let err_path = Filename.temp_file "fst-cli" ".err" in
  let err = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process fst_exe (Array.of_list ("fst" :: args)) null null err
  in
  Unix.close err;
  Unix.close null;
  let _, status = Unix.waitpid [] pid in
  let ic = open_in_bin err_path in
  let stderr = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err_path;
  let code =
    match status with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (code, stderr)

(* Removed options fail in the parser with the usage error (exit 2, usage
   line on stderr) before any work starts, any file is written or any
   daemon is contacted: [--metrics] ([--obs-dir] is the flow's one
   artifact writer) and [--engine] (the fault-simulation back-end is
   picked per fault, not by the caller). *)
let test_flow_rejects_metrics () =
  let rejects cmd args ~option =
    let code, stderr = run_fst (cmd :: args) in
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

let suite =
  [
    Alcotest.test_case "flow rejects --metrics as unknown option" `Quick
      test_flow_rejects_metrics;
  ]
