open Fst_netlist
open Fst_tpi

let spec =
  Spec.make ~name:"tpi" ~summary:"Insert functional scan chains (TPI)"
    ~args:
      [ Common.name_arg; Common.scale_arg; Common.chains_arg; Common.out_arg ]
    ~pos:Common.file_pos ()

let run p =
  let file = match Spec.positional p with [ f ] -> Some f | _ -> None in
  let chains = Common.chains p in
  let circuit =
    Common.or_die
      (Common.load ~name:(Spec.string_opt p "--name")
         ~scale:(Spec.float p "--scale" ~default:1.0)
         ~file)
  in
  let scanned, config =
    Common.or_die (Common.insert_chains ?file circuit chains)
  in
  Format.printf "%a@.%a@." Circuit.pp_stats scanned
    (Scan.pp_config scanned) config;
  let oh = Tpi.overhead scanned config ~before:circuit in
  Printf.printf
    "overhead: %d extra gates, %d dedicated routes, %d functional segments\n"
    oh.Tpi.extra_gates oh.Tpi.dedicated_routes oh.Tpi.functional_segments;
  (match Spec.string_opt p "--output" with
   | Some path ->
     Netfile.write_file scanned path;
     Printf.printf "scanned netlist written to %s\n" path
   | None -> ());
  0
