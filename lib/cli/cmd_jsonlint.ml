let spec =
  Spec.make ~name:"jsonlint"
    ~summary:"Validate JSON/JSONL output and --obs-dir artifacts"
    ~args:
      [
        Spec.value_arg [ "--expect" ] ~docv:"TEXT"
          ~doc:"Fail unless the file contains TEXT (repeatable).";
      ]
    ~pos:
      (Spec.Pos
         { docv = "FILE";
           doc = "JSON file (or .jsonl: one JSON object per line).";
           required = true; all = true })
    ()

(* Validation helper for the make-check smokes: parse each file as JSON
   (or, for .jsonl files, as one JSON object per line), validate the
   run-artifact formats structurally (.prom via the OpenMetrics checker,
   run.json via its schema check), and optionally require substrings,
   e.g. metric names that must be present. *)
let run p =
  let files = Spec.positional p in
  let expects = Spec.strings p "--expect" in
  let read_all path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let lint path =
    let text = try Ok (read_all path) with Sys_error e -> Error e in
    match text with
    | Error e -> Error e
    | Ok text ->
      let parse () =
        if Filename.check_suffix path ".prom" then
          match Fst_obs.Openmetrics.validate text with
          | Ok () -> ()
          | Error m -> failwith m
        else if Filename.check_suffix path ".jsonl" then
          String.split_on_char '\n' text
          |> List.iteri (fun i line ->
                 if String.trim line <> "" then
                   try ignore (Fst_obs.Json.of_string line)
                   with Fst_obs.Json.Parse_error m ->
                     failwith (Printf.sprintf "line %d: %s" (i + 1) m))
        else begin
          let j = Fst_obs.Json.of_string text in
          if Filename.basename path = "run.json" then
            match Fst_obs.Artifacts.validate_run j with
            | Ok () -> ()
            | Error m -> failwith m
        end
      in
      (match parse () with
       | () ->
         let missing =
           List.filter
             (fun needle ->
               (* substring search *)
               let nl = String.length needle and tl = String.length text in
               let rec at i =
                 if i + nl > tl then true
                 else if String.sub text i nl = needle then false
                 else at (i + 1)
               in
               at 0)
             expects
         in
         if missing = [] then Ok ()
         else
           Error
             (Printf.sprintf "missing expected content: %s"
                (String.concat ", " missing))
       | exception Fst_obs.Json.Parse_error m -> Error m
       | exception Failure m -> Error m)
  in
  let failures =
    List.filter_map
      (fun path ->
        match lint path with
        | Ok () ->
          Printf.printf "jsonlint: %s OK\n" path;
          None
        | Error e ->
          Printf.eprintf "jsonlint: %s: %s\n" path e;
          Some path)
      files
  in
  if failures = [] then 0 else 1
