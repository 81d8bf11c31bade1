open Fst_netlist
open Fst_tpi

let read_circuit path =
  try Ok (Netfile.parse_file path) with
  | Netfile.Parse_error { file; line; message } ->
    Error
      (Printf.sprintf "%s:%d: %s" (Option.value ~default:path file) line message)
  | Circuit.Malformed message | Circuit.Combinational_cycle message ->
    Error (Printf.sprintf "%s: %s" path message)
  | Sys_error e -> Error e

let load ~name ~scale ~file =
  match (file, name) with
  | Some path, _ -> read_circuit path
  | None, Some n -> (
    match Fst_gen.Suite.find ~scale n with
    | entry -> Ok (Fst_gen.Gen.generate entry.Fst_gen.Suite.profile)
    | exception Not_found ->
      Error
        (Printf.sprintf "unknown suite circuit %S (see `fst gen --list`)" n))
  | None, None -> Error "pass a netlist FILE or --name CIRCUIT"

let insert_chains ?file circuit chains =
  let source = Option.value ~default:circuit.Circuit.name file in
  match Tpi.insert_checked ~chains circuit with
  | Ok sc -> Ok sc
  | Error (Tpi.No_flip_flops as e) ->
    Error (source ^ ": " ^ Tpi.insert_error_message e)
  | Error (Tpi.Shift_broken (scanned, _, errs)) ->
    (* Render dynamic shift failures through the lint diagnostic machinery,
       one compiler-style line each, same as `fst lint` output. *)
    List.iter
      (fun e ->
        prerr_endline
          (Fst_lint.Diagnostic.to_string
             (Fst_lint.Diagnostic.of_shift_error scanned e)))
      errs;
    Error
      (Printf.sprintf "%s: scan chain verification failed (%d position(s))"
         source (List.length errs))

let or_die = function
  | Ok v -> v
  | Error e ->
    prerr_endline ("fst: " ^ e);
    exit 1

(* One line on stderr saying exactly where a --resume run's state came
   from — primary checkpoint, the .prev last-good rotation, or (with the
   precise reason) nowhere. *)
let print_resume = function
  | `Loaded Fst_core.Checkpoint.Primary ->
    Printf.eprintf "resume: loaded checkpoint\n%!"
  | `Loaded Fst_core.Checkpoint.Recovered ->
    Printf.eprintf "resume: primary checkpoint unusable, recovered from \
                    .prev\n%!"
  | `Failed err ->
    Printf.eprintf "resume: starting fresh (%s)\n%!"
      (Fst_core.Checkpoint.error_to_string err)

(* --- shared flag specs -------------------------------------------------- *)

let scale_arg =
  Spec.value_arg [ "--scale" ] ~docv:"S"
    ~doc:"Scale factor for suite circuit sizes (1.0 = published sizes)."

let name_arg =
  Spec.value_arg [ "-n"; "--name" ] ~docv:"NAME"
    ~doc:"Suite circuit name (e.g. s5378)."

let chains_arg =
  Spec.value_arg [ "-c"; "--chains" ] ~docv:"N"
    ~doc:"Number of scan chains to build (default 1)."

let chains p =
  let n = Spec.int p "--chains" ~default:1 in
  if n < 1 then Spec.usage_error "--chains expects N >= 1, got %d" n else n

let out_arg =
  Spec.value_arg [ "-o"; "--output" ] ~docv:"FILE" ~doc:"Output netlist file."

let jobs_arg =
  Spec.value_arg [ "-j"; "--jobs" ] ~docv:"N"
    ~doc:"Domains for fault simulation and grouped sequential ATPG (0 = one \
          per recommended core; 1 = single-core flow)."

let file_pos =
  Spec.Pos
    { docv = "FILE"; doc = "Netlist file (ISCAS'89-like syntax).";
      required = false; all = false }

let file_pos_required =
  Spec.Pos
    { docv = "FILE"; doc = "Netlist file (ISCAS'89-like syntax).";
      required = true; all = false }
