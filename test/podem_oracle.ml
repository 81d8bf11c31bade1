open Fst_logic
open Fst_netlist
open Fst_fault
module Scoap = Fst_testability.Scoap

type result = Test of (int * V3.t) list | Untestable | Aborted
type stats = {
  backtracks : int;
  decisions : int;
  implications : int;
  stop : Fst_atpg.Podem.stop;
}

(* Values are kept as two flat planes (good machine, faulty machine); the
   faulty plane embeds stem-fault injections, while branch faults are
   applied at the consumer pin on read. *)
type engine = {
  view : View.t;
  c : Circuit.t;
  m : Scoap.t;
  vgood : V3.t array;
  vfault : V3.t array;
  assigned : V3.t array; (* per net; meaningful for free nets only *)
  stem_stuck : V3.t array; (* X = no stem fault on this net *)
  branch_stuck : (int * V3.t) list array; (* per node: (pin, stuck) *)
  mutable branch_pins : (int * int) list; (* all branch-fault (node, pin) *)
  sites : (int * V3.t) list; (* (source net, stuck) for excitation *)
  obs_target : bool array; (* per net: source of an observation point *)
  visit_stamp : int array;
  mutable stamp : int;
  mutable exhaustion : Fst_atpg.Podem.stop; (* first reason lost *)
  mutable backtracks : int;
  mutable decisions : int;
  mutable implications : int;
}

let make_engine view ~scoap ~faults =
  let c = view.View.circuit in
  let n = Circuit.num_nets c in
  let e =
    {
      view;
      c;
      m = scoap;
      vgood = Array.make n V3.X;
      vfault = Array.make n V3.X;
      assigned = Array.make n V3.X;
      stem_stuck = Array.make n V3.X;
      branch_stuck = Array.make n [];
      branch_pins = [];
      sites = [];
      obs_target = Array.make n false;
      visit_stamp = Array.make n (-1);
      stamp = 0;
      exhaustion = Fst_atpg.Podem.Exhausted;
      backtracks = 0;
      decisions = 0;
      implications = 0;
    }
  in
  let sites = ref [] in
  List.iter
    (fun (f : Fault.t) ->
      let stuck = V3.of_bool f.Fault.stuck in
      (match f.Fault.site with
       | Fault.Stem net -> e.stem_stuck.(net) <- stuck
       | Fault.Branch { node; pin } ->
         e.branch_stuck.(node) <- (pin, stuck) :: e.branch_stuck.(node);
         e.branch_pins <- (node, pin) :: e.branch_pins);
      sites := (Fault.site_net c f, stuck) :: !sites)
    faults;
  let e = { e with sites = !sites } in
  Array.iter
    (fun op -> e.obs_target.(View.obs_source_net view op) <- true)
    view.View.observe;
  e

let good e n = e.vgood.(n)

(* Faulty value seen by pin [pin] of node [node] whose source is [net]. *)
let pin_fault e node pin net =
  match e.branch_stuck.(node) with
  | [] -> e.vfault.(net)
  | overrides -> (
    match List.find_opt (fun (p, _) -> p = pin) overrides with
    | Some (_, stuck) -> stuck
    | None -> e.vfault.(net))

let is_effect_at_pin e node pin net =
  let g = e.vgood.(net) and f = pin_fault e node pin net in
  V3.is_binary g && V3.is_binary f && not (V3.equal g f)

let net_effect e n =
  let g = e.vgood.(n) and f = e.vfault.(n) in
  V3.is_binary g && V3.is_binary f && not (V3.equal g f)

let net_has_x e n = not (V3.is_binary e.vgood.(n)) || not (V3.is_binary e.vfault.(n))

let source_value e i =
  match e.view.View.fixed.(i) with
  | Some v -> v
  | None -> if e.view.View.free.(i) then e.assigned.(i) else V3.X

(* Allocation-free n-ary gate evaluation over one plane. *)
let eval_plane g fi read =
  let n = Array.length fi in
  match g with
  | Gate.And | Gate.Nand ->
    let acc = ref V3.One in
    for k = 0 to n - 1 do
      acc := V3.band !acc (read k fi.(k))
    done;
    if Gate.inverting g then V3.bnot !acc else !acc
  | Gate.Or | Gate.Nor ->
    let acc = ref V3.Zero in
    for k = 0 to n - 1 do
      acc := V3.bor !acc (read k fi.(k))
    done;
    if Gate.inverting g then V3.bnot !acc else !acc
  | Gate.Xor | Gate.Xnor ->
    let acc = ref V3.Zero in
    for k = 0 to n - 1 do
      acc := V3.bxor !acc (read k fi.(k))
    done;
    if Gate.inverting g then V3.bnot !acc else !acc
  | Gate.Not -> V3.bnot (read 0 fi.(0))
  | Gate.Buf -> read 0 fi.(0)

let imply e =
  e.implications <- e.implications + 1;
  let read_good _ net = e.vgood.(net) in
  Array.iter
    (fun i ->
      (match e.c.Circuit.nodes.(i) with
       | Circuit.Input | Circuit.Dff _ ->
         let v = source_value e i in
         e.vgood.(i) <- v;
         e.vfault.(i) <- v
       | Circuit.Const v ->
         e.vgood.(i) <- v;
         e.vfault.(i) <- v
       | Circuit.Gate (g, fi) ->
         e.vgood.(i) <- eval_plane g fi read_good;
         let fault =
           match e.branch_stuck.(i) with
           | [] -> eval_plane g fi (fun _ net -> e.vfault.(net))
           | _ -> eval_plane g fi (fun pin net -> pin_fault e i pin net)
         in
         e.vfault.(i) <- fault);
      match e.stem_stuck.(i) with
      | V3.X -> ()
      | stuck -> e.vfault.(i) <- stuck)
    e.c.Circuit.topo

let obs_effect e = function
  | View.Onet n -> net_effect e n
  | View.Opin { node; pin } ->
    is_effect_at_pin e node pin (Circuit.fanins e.c node).(pin)

let detected e = Array.exists (fun op -> obs_effect e op) e.view.View.observe

(* A fault effect can live on a net (stem faults, propagated effects) or
   only on a consumer pin (an excited branch fault that has not yet passed
   its gate). *)
let effect_somewhere e =
  let n = Array.length e.vgood in
  let rec loop i = if i >= n then false else net_effect e i || loop (i + 1) in
  loop 0
  || List.exists
       (fun (node, pin) ->
         is_effect_at_pin e node pin (Circuit.fanins e.c node).(pin))
       e.branch_pins

(* Gates whose output is still undetermined but which see a fault effect on
   some input: the classic D-frontier. *)
let frontier e =
  let acc = ref [] in
  Array.iteri
    (fun i nd ->
      match nd with
      | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> ()
      | Circuit.Gate (_, fi) ->
        if net_has_x e i then begin
          let feeds_effect = ref false in
          Array.iteri
            (fun pin f ->
              if is_effect_at_pin e i pin f then feeds_effect := true)
            fi;
          if !feeds_effect then acc := i :: !acc
        end)
    e.c.Circuit.nodes;
  !acc

(* Is there a path of not-yet-determined nets from [start] (a frontier gate
   output) to an observation source? Necessary condition for the fault
   effect ever reaching an observation point. *)
let x_path e start =
  e.stamp <- e.stamp + 1;
  let stamp = e.stamp in
  let rec dfs n =
    if e.visit_stamp.(n) = stamp then false
    else begin
      e.visit_stamp.(n) <- stamp;
      if e.obs_target.(n) then true
      else
        Array.exists
          (fun consumer ->
            match e.c.Circuit.nodes.(consumer) with
            | Circuit.Gate _ -> net_has_x e consumer && dfs consumer
            | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> false)
          e.c.Circuit.fanout.(n)
    end
  in
  dfs start

let noncontrolling g =
  match Gate.controlling g with
  | Some V3.Zero -> V3.One
  | Some V3.One -> V3.Zero
  | Some V3.X -> assert false
  | None -> V3.X

(* Objective for propagating through frontier gate [i]: one still-unknown
   side input set to its non-controlling value (for xor-family, the cheaper
   binary value). Picks the hardest candidate first so impossible
   propagations fail early. *)
let propagation_objective e i =
  match e.c.Circuit.nodes.(i) with
  | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> None
  | Circuit.Gate (g, fi) ->
    let best = ref None in
    Array.iter
      (fun f ->
        if V3.equal (good e f) V3.X then begin
          let v =
            match noncontrolling g with
            | V3.X ->
              if e.m.Scoap.cc0.(f) <= e.m.Scoap.cc1.(f) then V3.Zero
              else V3.One
            | v -> v
          in
          let cost = Scoap.cc e.m f v in
          if cost < Scoap.infinite then
            match !best with
            | Some (_, _, c0) when c0 >= cost -> ()
            | Some _ | None -> best := Some (f, v, cost)
        end)
      fi;
    (match !best with Some (f, v, _) -> Some (f, v) | None -> None)

(* Records the first reason the search stopped being complete. *)
let incomplete e why =
  if e.exhaustion = Fst_atpg.Podem.Exhausted then e.exhaustion <- why

let objective e =
  if not (effect_somewhere e) then
    (* Fault not excited anywhere: drive some site to the opposite value. *)
    let unexcited =
      List.filter (fun (net, _) -> V3.equal (good e net) V3.X) e.sites
    in
    let viable =
      List.filter
        (fun (net, stuck) -> Scoap.cc e.m net (V3.bnot stuck) < Scoap.infinite)
        unexcited
    in
    match viable with
    | (net, stuck) :: _ -> Some (net, V3.bnot stuck)
    | [] -> None
  else begin
    let gates = frontier e in
    let reachable = List.filter (fun i -> x_path e i) gates in
    let ordered =
      List.sort
        (fun a b -> Int.compare e.m.Scoap.obs.(a) e.m.Scoap.obs.(b))
        reachable
    in
    let rec first_objective = function
      | [] ->
        if gates <> [] && reachable <> [] then
          incomplete e Fst_atpg.Podem.Frontier_prune;
        None
      | i :: rest -> (
        match propagation_objective e i with
        | Some o -> Some o
        | None -> first_objective rest)
    in
    first_objective ordered
  end

(* Walk an objective back to a free input along still-unknown nets, guided
   by controllability. Only pins whose needed value has finite cost are
   considered, which keeps the walk inside justifiable logic. *)
let rec backtrace e net v =
  if e.view.View.free.(net) then Some (net, v)
  else
    match e.c.Circuit.nodes.(net) with
    | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> None
    | Circuit.Gate (g, fi) -> (
      match g with
      | Gate.Not -> backtrace e fi.(0) (V3.bnot v)
      | Gate.Buf -> backtrace e fi.(0) v
      | Gate.And | Gate.Nand | Gate.Or | Gate.Nor -> (
        let base_v = if Gate.inverting g then V3.bnot v else v in
        let ctrl =
          match Gate.controlling g with
          | Some c -> c
          | None -> assert false
        in
        let base_ctrl_out =
          match g with
          | Gate.And | Gate.Nand -> V3.Zero
          | Gate.Or | Gate.Nor -> V3.One
          | Gate.Xor | Gate.Xnor | Gate.Not | Gate.Buf -> assert false
        in
        let single = V3.equal base_v base_ctrl_out in
        let needed = if single then ctrl else V3.bnot ctrl in
        let candidates =
          Array.to_list fi
          |> List.filter (fun f ->
                 V3.equal (good e f) V3.X
                 && Scoap.cc e.m f needed < Scoap.infinite)
        in
        let pick cmp =
          List.fold_left
            (fun acc f ->
              match acc with
              | None -> Some f
              | Some b ->
                if cmp (Scoap.cc e.m f needed) (Scoap.cc e.m b needed) then
                  Some f
                else acc)
            None candidates
        in
        let choice = if single then pick ( < ) else pick ( > ) in
        match choice with
        | Some f -> backtrace e f needed
        | None -> None)
      | Gate.Xor | Gate.Xnor -> (
        let xs, binaries =
          Array.to_list fi
          |> List.partition (fun f -> V3.equal (good e f) V3.X)
        in
        match xs with
        | [] -> None
        | _ ->
          let viable =
            List.filter
              (fun f ->
                min e.m.Scoap.cc0.(f) e.m.Scoap.cc1.(f) < Scoap.infinite)
              xs
          in
          (match viable with
           | [] -> None
           | f :: _ ->
             let needed =
               if List.length xs = 1 then begin
                 let parity =
                   List.fold_left
                     (fun acc b -> V3.bxor acc (good e b))
                     V3.Zero binaries
                 in
                 let target = if Gate.inverting g then V3.bnot v else v in
                 V3.bxor target parity
               end
               else if e.m.Scoap.cc0.(f) <= e.m.Scoap.cc1.(f) then V3.Zero
               else V3.One
             in
             if V3.equal needed V3.X then None
             else if Scoap.cc e.m f needed >= Scoap.infinite then None
             else backtrace e f needed)))

type decision = { pi : int; mutable flipped : bool }

let extract_test e =
  let acc = ref [] in
  for i = Array.length e.assigned - 1 downto 0 do
    if e.view.View.free.(i) && V3.is_binary e.assigned.(i) then
      acc := (i, e.assigned.(i)) :: !acc
  done;
  !acc

let run ?(backtrack_limit = 1000) ?should_abort ?scoap view ~faults =
  let scoap =
    match scoap with Some s -> s | None -> Fst_testability.Scoap.compute view
  in
  let e = make_engine view ~scoap ~faults in
  let stack = ref [] in
  let rec step () =
    imply e;
    if detected e then (Test (extract_test e), Fst_atpg.Podem.Found)
    else
      match objective e with
      | Some (net, v) -> (
        match backtrace e net v with
        | Some (pi, pv) ->
          e.assigned.(pi) <- pv;
          e.decisions <- e.decisions + 1;
          stack := { pi; flipped = false } :: !stack;
          step ()
        | None ->
          (* A backtrace dead-end only shows that this particular objective
             cannot be justified, not that the subtree is test-free:
             abandoning it costs completeness. *)
          incomplete e Fst_atpg.Podem.Dead_end;
          backtrack ())
      | None -> backtrack ()
  and backtrack () =
    if e.backtracks >= backtrack_limit then
      (Aborted, Fst_atpg.Podem.Backtrack_limit)
    else if
      (match should_abort with Some f -> f () | None -> false)
    then (Aborted, Fst_atpg.Podem.Abort_hook)
    else
      match !stack with
      | [] ->
        ( (if e.exhaustion = Fst_atpg.Podem.Exhausted then Untestable
           else Aborted),
          e.exhaustion )
      | d :: rest ->
        if d.flipped then begin
          e.assigned.(d.pi) <- V3.X;
          stack := rest;
          backtrack ()
        end
        else begin
          d.flipped <- true;
          e.backtracks <- e.backtracks + 1;
          e.assigned.(d.pi) <- V3.bnot e.assigned.(d.pi);
          step ()
        end
  in
  let result, stop = step () in
  ( result,
    {
      backtracks = e.backtracks;
      decisions = e.decisions;
      implications = e.implications;
      stop;
    } )
