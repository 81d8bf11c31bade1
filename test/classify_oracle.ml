(* The scan-mode steady state of one faulty machine at a time, and the
   classification read off it: the test reference for
   [Fsim.Engine.steady_state] and [Classify]. A state holds one [V3.t] per
   net, and every gate goes through [Gate.eval] in topological order, so
   the semantics can be read off directly:

   - the good machine is the power-on state (constants set, everything
     else X) with the scan-mode constraints applied, settled once;
   - a faulty machine starts from it with the fault's stem forced and
     repeats sweeps: every gate in topological order, then every
     flip-flop whose data value changed since the previous sweep's end
     (in the first sweep, also one whose data pin carries the fault)
     latches it, all at once;
   - a flip-flop that changes a third time takes X instead;
   - it stops when no flip-flop changes. *)

open Fst_logic
open Fst_netlist
open Fst_fault
open Fst_tpi
open Fst_core

let good (c : Circuit.t) (config : Scan.config) =
  let v = Array.make (Circuit.num_nets c) V3.X in
  Array.iteri
    (fun i nd -> match nd with Circuit.Const k -> v.(i) <- k | _ -> ())
    c.Circuit.nodes;
  List.iter (fun (n, x) -> v.(n) <- x) config.Scan.constraints;
  Array.iter
    (fun i ->
      match c.Circuit.nodes.(i) with
      | Circuit.Gate (g, fi) -> v.(i) <- Gate.eval g (Array.map (fun f -> v.(f)) fi)
      | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> ())
    c.Circuit.topo;
  v

let data (c : Circuit.t) ff =
  match c.Circuit.nodes.(ff) with
  | Circuit.Dff d -> d
  | Circuit.Input | Circuit.Const _ | Circuit.Gate _ -> assert false

(* The faulty machine's steady state under [fault], from [good]. *)
let steady (c : Circuit.t) ~good (fault : Fault.t) =
  let stuck = V3.of_bool fault.Fault.stuck in
  let v = Array.copy good in
  let forced i x =
    match fault.Fault.site with Fault.Stem s when s = i -> stuck | _ -> x
  in
  let read i pin f =
    match fault.Fault.site with
    | Fault.Branch { node; pin = p } when node = i && p = pin -> stuck
    | _ -> v.(f)
  in
  (match fault.Fault.site with Fault.Stem s -> v.(s) <- stuck | Fault.Branch _ -> ());
  let dffs = c.Circuit.dffs in
  (* Per flip-flop, its data value at the previous sweep's end. *)
  let last = Array.map (fun ff -> good.(data c ff)) dffs in
  let changes = Array.make (Array.length dffs) 0 in
  let first = ref true and again = ref true in
  while !again do
    Array.iter
      (fun i ->
        match c.Circuit.nodes.(i) with
        | Circuit.Gate (g, fi) -> v.(i) <- forced i (Gate.eval g (Array.mapi (read i) fi))
        | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> ())
      c.Circuit.topo;
    let latched =
      Array.mapi
        (fun k ff ->
          let d = data c ff in
          let pin_fault =
            match fault.Fault.site with
            | Fault.Branch { node; _ } -> node = ff
            | Fault.Stem _ -> false
          in
          let moved = (not (V3.equal v.(d) last.(k))) || (!first && pin_fault) in
          last.(k) <- v.(d);
          if moved then Some (forced ff (read ff 0 d)) else None)
        dffs
    in
    first := false;
    again := false;
    Array.iteri
      (fun k l ->
        match l with
        | None -> ()
        | Some x ->
          let ff = dffs.(k) in
          let x = if (not (V3.equal x v.(ff))) && changes.(k) >= 2 then V3.X else x in
          if not (V3.equal x v.(ff)) then begin
            v.(ff) <- x;
            changes.(k) <- changes.(k) + 1;
            again := true
          end)
      latched
  done;
  v

(* The locations of [fault], whose steady state is [v]: a chain net
   (scan-in, flip-flop or path net) that becomes binary is forced
   constant; a side input that becomes X is unknown; a side input of an
   xor-family gate that flips between binary values, or a branch fault
   on that pin that flips it, inverts the segment. *)
let locations (c : Circuit.t) (config : Scan.config) ~good (fault : Fault.t) v =
  let locs = ref [] in
  let add chain seg kind = locs := (chain, seg, kind) :: !locs in
  let differs n = not (V3.equal v.(n) good.(n)) in
  Array.iter
    (fun ch ->
      let idx = ch.Scan.index in
      let chain_net seg n =
        if differs n && V3.is_binary v.(n) then add idx seg Classify.Forced_constant
      in
      chain_net 0 ch.Scan.scan_in;
      Array.iteri (fun p ff -> chain_net (p + 1) ff) ch.Scan.ffs;
      Array.iteri
        (fun seg s ->
          Array.iter (chain_net seg) s.Scan.path;
          List.iter
            (fun (node, pin, net) ->
              let xor =
                match c.Circuit.nodes.(node) with
                | Circuit.Gate ((Gate.Xor | Gate.Xnor), _) -> true
                | Circuit.Gate _ | Circuit.Input | Circuit.Const _ | Circuit.Dff _ ->
                  false
              in
              if differs net then begin
                match v.(net) with
                | V3.X -> add idx seg Classify.Side_unknown
                | V3.Zero | V3.One ->
                  if xor && V3.is_binary good.(net) then
                    add idx seg Classify.Side_inverted
              end;
              match fault.Fault.site with
              | Fault.Branch { node = n; pin = p }
                when n = node && p = pin && xor && V3.is_binary good.(net)
                     && not (V3.equal good.(net) (V3.of_bool fault.Fault.stuck)) ->
                add idx seg Classify.Side_inverted
              | _ -> ())
            (Scan.side_pins c config ~chain:idx ~segment:seg))
        ch.Scan.segments)
    config.Scan.chains;
  List.sort_uniq compare !locs

let category locs =
  if locs = [] then Classify.Cat3
  else if List.exists (fun (_, _, k) -> k = Classify.Side_unknown) locs then Classify.Cat2
  else Classify.Cat1

(* Per fault, its category and locations. *)
let run c config faults =
  let good = good c config in
  Array.map
    (fun fault ->
      let locs = locations c config ~good fault (steady c ~good fault) in
      (category locs, locs))
    faults
