open Fst_logic
open Fst_netlist
open Fst_fault
open Fst_tpi

type category = Cat1 | Cat2 | Cat3
type location_kind = Forced_constant | Side_unknown | Side_inverted

type info = {
  fault : Fault.t;
  category : category;
  locations : (int * int * location_kind) list;
}

type t = {
  infos : info array;
  easy : int array;
  hard : int array;
  affecting : int;
}

(* Per net, the side pins it drives: (chain, seg, node, pin,
   consumer-is-xor-family). *)
let side_table c config =
  let side_of = Array.make (Circuit.num_nets c) [] in
  Array.iter
    (fun ch ->
      Array.iteri
        (fun seg _ ->
          List.iter
            (fun (node, pin, net) ->
              let is_xor =
                match Circuit.node c node with
                | Circuit.Gate ((Gate.Xor | Gate.Xnor), _) -> true
                | Circuit.Gate _ | Circuit.Input | Circuit.Const _
                | Circuit.Dff _ -> false
              in
              side_of.(net) <-
                (ch.Scan.index, seg, node, pin, is_xor) :: side_of.(net))
            (Scan.side_pins c config ~chain:ch.Scan.index ~segment:seg))
        ch.Scan.segments)
    config.Scan.chains;
  side_of

(* The locations of [fault], from the nets whose steady-state value it
   changes ([changes]: net, faulty value) against the good ones [good]. *)
let locations_of c ~good ~chain_locs ~side_of (fault : Fault.t) changes =
  let locs = ref [] in
  let add chain seg kind = locs := (chain, seg, kind) :: !locs in
  List.iter
    (fun (n, v) ->
      if V3.is_binary v then
        List.iter (fun (chain, seg) -> add chain seg Forced_constant) chain_locs.(n);
      List.iter
        (fun (chain, seg, _node, _pin, is_xor) ->
          match v with
          | V3.X -> add chain seg Side_unknown
          | V3.Zero | V3.One ->
            (* A binary flip of an xor-family side input inverts the
               segment without forcing constants. *)
            if is_xor && V3.is_binary good.(n) then add chain seg Side_inverted)
        side_of.(n))
    changes;
  (* A branch fault sitting directly on an xor-family side pin inverts the
     segment without changing any net value. *)
  (match fault.Fault.site with
   | Fault.Branch { node; pin } ->
     let src = (Circuit.fanins c node).(pin) in
     List.iter
       (fun (chain, seg, n', p', is_xor) ->
         if n' = node && p' = pin && is_xor then
           let stuck = V3.of_bool fault.Fault.stuck in
           if V3.is_binary good.(src) && not (V3.equal good.(src) stuck)
           then add chain seg Side_inverted)
       side_of.(src)
   | Fault.Stem _ -> ());
  List.sort_uniq compare !locs

let categorize locations =
  if locations = [] then Cat3
  else if List.exists (fun (_, _, k) -> k = Side_unknown) locations then Cat2
  else Cat1

let run ?obs ?jobs c config faults =
  let good = Scan.scan_mode_values c config
  and chain_locs = Scan.chain_locations c config
  and side_of = side_table c config in
  let watch =
    Array.of_seq
      (Seq.filter
         (fun n -> chain_locs.(n) <> [] || side_of.(n) <> [])
         (Seq.init (Circuit.num_nets c) Fun.id))
  in
  let infos =
    Fst_fsim.Fsim.Engine.steady_state ?obs ?jobs c
      ~constraints:config.Scan.constraints ~faults ~watch
      (fun fault changes ->
        let locations = locations_of c ~good ~chain_locs ~side_of fault changes in
        { fault; category = categorize locations; locations })
  in
  let idx cat =
    Array.of_seq
      (Seq.filter (fun i -> infos.(i).category = cat) (Seq.init (Array.length infos) Fun.id))
  in
  let easy = idx Cat1 and hard = idx Cat2 in
  { infos; easy; hard; affecting = Array.length easy + Array.length hard }
