open Fst_core

let spec =
  Spec.make ~name:"alt"
    ~summary:"Classify faults: the easy/hard split of the paper's Table 2"
    ~args:[ Common.name_arg; Common.scale_arg; Common.chains_arg ]
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
  let faults =
    Fst_fault.Fault.collapse scanned (Fst_fault.Fault.universe scanned)
  in
  let cls = Classify.run scanned config faults in
  let total = Array.length faults in
  Printf.printf
    "%d faults; %d affect the chain (%.1f%%): %d easy (alternating sequence), %d hard\n"
    total cls.Classify.affecting
    (100.0 *. float_of_int cls.Classify.affecting /. float_of_int total)
    (Array.length cls.Classify.easy)
    (Array.length cls.Classify.hard);
  0
