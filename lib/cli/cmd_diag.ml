open Fst_tpi
open Fst_core

let spec =
  Spec.make ~name:"diag"
    ~summary:"Inject a chain defect and run scan-chain diagnosis"
    ~args:
      [
        Common.name_arg;
        Common.scale_arg;
        Common.chains_arg;
        Spec.value_arg [ "--position" ] ~docv:"P"
          ~doc:"Chain position of the injected defect (default: middle).";
      ]
    ~pos:Common.file_pos ()

let run p =
  let file = match Spec.positional p with [ f ] -> Some f | _ -> None in
  let circuit =
    Common.or_die
      (Common.load ~name:(Spec.string_opt p "--name")
         ~scale:(Spec.float p "--scale" ~default:1.0)
         ~file)
  in
  let scanned, config =
    Common.or_die
      (Common.insert_chains ?file circuit (Common.chains p))
  in
  let position = Spec.int p "--position" ~default:(-1) in
  let ch = config.Scan.chains.(0) in
  let len = Array.length ch.Scan.ffs in
  let pos = if position < 0 || position >= len then len / 2 else position in
  let fault =
    { Fst_fault.Fault.site = Fst_fault.Fault.Stem ch.Scan.ffs.(pos);
      stuck = true }
  in
  Printf.printf "injected %s at chain 0 position %d\n"
    (Fst_fault.Fault.to_string scanned fault)
    pos;
  (match Diagnose.diagnose_fault scanned config fault with
   | [] -> print_endline "chain test passes; nothing to diagnose"
   | verdicts ->
     List.iteri
       (fun i v ->
         if i < 5 then Format.printf "#%d %a@." (i + 1) Diagnose.pp_verdict v)
       verdicts);
  0
