open Fst_fsim

type t = {
  blocks : int;
  observe : int array;
  (* per fault: sorted list of failing sequence indices *)
  signatures : int list array;
}

(* Full (no-dropping) signatures: simulate each block independently so a
   fault's entry records every sequence that detects it. *)
let build c ~faults ~observe ~blocks =
  let n = Array.length faults in
  let fails = Array.make n [] in
  List.iteri
    (fun b stim ->
      let outcome = Fsim.Engine.detect_all c ~faults ~observe stim in
      Array.iteri
        (fun i o -> if o <> None then fails.(i) <- b :: fails.(i))
        outcome)
    blocks;
  { blocks = List.length blocks; observe; signatures = Array.map List.rev fails }

let num_blocks d = d.blocks
let signature d ~fault_index = d.signatures.(fault_index)

let observe_defect c d ~fault ~blocks =
  let fails = ref [] in
  List.iteri
    (fun b stim ->
      match
        Fsim.Engine.detect_all c ~faults:[| fault |] ~observe:d.observe stim
      with
      | [| Some _ |] -> fails := b :: !fails
      | _ -> ())
    blocks;
  List.rev !fails

(* Symmetric difference size between two sorted lists. *)
let distance a b =
  let rec go a b acc =
    match a, b with
    | [], rest | rest, [] -> acc + List.length rest
    | x :: xs, y :: ys ->
      if x = y then go xs ys acc
      else if x < y then go xs b (acc + 1)
      else go a ys (acc + 1)
  in
  go a b 0

let rank d ~observed =
  let scored =
    Array.to_list
      (Array.mapi (fun i s -> (i, distance s observed)) d.signatures)
  in
  List.sort (fun (_, a) (_, b) -> Int.compare a b) scored

let distinguishable d =
  let seen = Hashtbl.create 64 in
  Array.iter (fun s -> Hashtbl.replace seen s ()) d.signatures;
  Hashtbl.length seen
