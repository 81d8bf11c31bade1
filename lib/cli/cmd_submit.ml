module Protocol = Fst_serve.Protocol
module Client = Fst_serve.Client
module Json = Fst_obs.Json

let spec =
  Spec.make ~name:"submit"
    ~summary:"Submit a job to a running fst serve daemon"
    ~args:
      (Cmd_serve.addr_args
      @ [
          Common.name_arg;
          Common.scale_arg;
          Common.chains_arg;
          Common.jobs_arg;
          Spec.value_arg [ "--kind" ] ~docv:"KIND"
            ~doc:"Job kind: flow (default), lint, or sca.";
          Spec.value_arg [ "--config" ] ~docv:"PATH"
            ~doc:"Flow configuration as a Config JSON file (the format \
                  printed by flow event logs); overrides \
                  -j/--time-budget/--scale.";
          Spec.value_arg [ "--time-budget" ] ~docv:"S"
            ~doc:"Wall-clock budget for the job, in seconds (the daemon \
                  may cap it further).";
          Spec.value_arg [ "--tenant" ] ~docv:"NAME"
            ~doc:"Fair-share scheduling bucket (default anon): tenants \
                  take strict round-robin turns.";
          Spec.flag_arg [ "--no-wait" ]
            ~doc:"Return after the ack instead of streaming events and \
                  waiting for the result; poll with status/result.";
          Spec.value_arg [ "--events" ] ~docv:"FILE"
            ~doc:"Write the streamed job event lines (JSONL) to FILE.";
          Spec.flag_arg [ "--json" ]
            ~doc:"Print the raw result payload as JSON instead of the \
                  rendered report.";
          Spec.flag_arg [ "--ping" ] ~doc:"Just probe the daemon and exit.";
          Spec.flag_arg [ "--stats" ]
            ~doc:"Print the daemon's cache/queue statistics and exit.";
          Spec.flag_arg [ "--shutdown" ]
            ~doc:"Ask the daemon to finish running jobs and exit.";
        ])
    ~extra_help:[ Cmd_serve.protocol_help ]
    ~pos:Common.file_pos ()

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let simple_request addr req =
  let c = Client.connect addr in
  let r = Client.request c req in
  Client.close c;
  match r with
  | Ok j ->
    Json.to_channel stdout j;
    print_newline ();
    0
  | Error e ->
    prerr_endline ("fst: " ^ e);
    1

let netlist_of p =
  match (Spec.positional p, Spec.string_opt p "--name") with
  | [ file ], _ ->
    let name = Filename.(remove_extension (basename file)) in
    (match read_all file with
     | text -> (text, name)
     | exception Sys_error e -> Common.or_die (Error e))
  | [], Some _ ->
    let circuit =
      Common.or_die
        (Common.load ~name:(Spec.string_opt p "--name")
           ~scale:(Spec.float p "--scale" ~default:1.0)
           ~file:None)
    in
    (Fst_netlist.Netfile.to_string circuit, circuit.Fst_netlist.Circuit.name)
  | _ -> Common.or_die (Error "pass a netlist FILE or --name CIRCUIT")

let config_of p =
  match Spec.string_opt p "--config" with
  | Some path -> (
    match Json.of_string (read_all path) with
    | j -> j
    | exception Sys_error e -> Common.or_die (Error e)
    | exception Json.Parse_error e ->
      Common.or_die (Error (Printf.sprintf "%s: %s" path e)))
  | None ->
    (* Build the semantic config from the same flags fst flow takes, and
       ship its canonical JSON — the server re-reads it with
       Config.of_json, the exact inverse. *)
    let cfg =
      Fst_core.Config.of_cli
        ~jobs:(Spec.int p "--jobs" ~default:0)
        ~scale:(Spec.float p "--scale" ~default:1.0)
        ?time_budget:(Spec.float_opt p "--time-budget")
        ()
    in
    Fst_core.Config.to_json cfg

let run p =
  let addr = Cmd_serve.get_addr p in
  if Spec.flag p "--ping" then simple_request addr Protocol.Ping
  else if Spec.flag p "--stats" then simple_request addr Protocol.Stats
  else if Spec.flag p "--shutdown" then simple_request addr Protocol.Shutdown
  else begin
    let kind =
      let k = Option.value ~default:"flow" (Spec.string_opt p "--kind") in
      match Protocol.job_kind_of_string k with
      | Some k -> k
      | None -> Spec.usage_error "unknown job kind %S" k
    in
    let netlist, name = netlist_of p in
    let submit =
      {
        Protocol.kind;
        netlist;
        name;
        chains = Common.chains p;
        config = config_of p;
        wait = not (Spec.flag p "--no-wait");
        tenant = Option.value ~default:"anon" (Spec.string_opt p "--tenant");
      }
    in
    let c = Client.connect addr in
    let outcome = Client.submit c submit in
    Client.close c;
    match outcome with
    | Error e ->
      prerr_endline ("fst: " ^ e);
      1
    | Ok o ->
      (match Spec.string_opt p "--events" with
       | Some path ->
         let oc = open_out path in
         List.iter
           (fun line ->
             output_string oc line;
             output_char oc '\n')
           o.Client.events;
         close_out oc
       | None -> ());
      if not submit.Protocol.wait then begin
        Printf.printf "submitted: %s\n" o.Client.job;
        0
      end
      else begin
        (if Spec.flag p "--json" || kind <> Protocol.Flow then begin
           Json.to_channel stdout o.Client.payload;
           print_newline ()
         end
         else
           match Fst_report.Flow_report.of_json o.Client.payload with
           | Ok report -> print_string (Fst_report.Flow_report.to_text report)
           | Error e ->
             Common.or_die (Error ("malformed report payload: " ^ e)));
        Printf.eprintf "submit: %s %s cached=%b elapsed=%.3fs events=%d\n%!"
          o.Client.job
          (Protocol.job_kind_to_string kind)
          o.Client.cached o.Client.elapsed_s
          (List.length o.Client.events);
        0
      end
  end
