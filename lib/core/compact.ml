open Fst_fsim

let coverage c ~faults ~observe ~blocks =
  let outcome =
    Fsim.Engine.detect_dropping c ~faults ~observe ~stimuli:blocks
  in
  Array.fold_left (fun acc o -> if o = None then acc else acc + 1) 0 outcome

(* Reverse-order restoration: walking the set backwards with fault
   dropping credits each detection to the *last* sequence that achieves
   it; sequences credited with nothing are dropped. *)
let reverse_order c ~faults ~observe ~blocks =
  let n = List.length blocks in
  let reversed = List.rev blocks in
  let outcome =
    Fsim.Engine.detect_dropping c ~faults ~observe ~stimuli:reversed
  in
  let keeps = Array.make n false in
  let detected = ref 0 in
  Array.iter
    (function
      | Some (rev_block, _) ->
        incr detected;
        keeps.(n - 1 - rev_block) <- true
      | None -> ())
    outcome;
  let kept = ref [] in
  for i = n - 1 downto 0 do
    if keeps.(i) then kept := i :: !kept
  done;
  (!kept, !detected)
