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

(* Shared, stamp-reset scratch for the per-fault propagation. *)
type env = {
  c : Circuit.t;
  good : V3.t array;
  chain_locs : (int * int) list array; (* per net *)
  side_of : (int * int * int * int * bool) list array;
      (* per net: (chain, seg, node, pin, consumer-is-xor-family) *)
  fv : V3.t array;
  stamp : int array;
  updates : int array;
  mutable cur : int;
  mutable changed : int list;
}

let build_env c config =
  let n = Circuit.num_nets c in
  let side_of = Array.make n [] in
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
  {
    c;
    good = Scan.scan_mode_values c config;
    chain_locs = Scan.chain_locations c config;
    side_of;
    fv = Array.make n V3.X;
    stamp = Array.make n (-1);
    updates = Array.make n 0;
    cur = -1;
    changed = [];
  }

let get env n = if env.stamp.(n) = env.cur then env.fv.(n) else env.good.(n)

let set env n v =
  if env.stamp.(n) <> env.cur then begin
    env.stamp.(n) <- env.cur;
    env.updates.(n) <- 0;
    env.changed <- n :: env.changed
  end;
  env.fv.(n) <- v

(* Steady-state faulty value of node [i] under the scan-mode constants;
   flip-flops are transparent (the analysis is over the scan-mode fixpoint,
   as in the paper's Figure 3 where implications cross flip-flops). *)
let eval_faulty env ~stem_net ~stem_val ~branch_node ~branch_pin ~branch_val i =
  let read node pin net =
    if node = branch_node && pin = branch_pin then branch_val else get env net
  in
  let v =
    match Circuit.node env.c i with
    | Circuit.Input -> env.good.(i)
    | Circuit.Const k -> k
    | Circuit.Dff d -> read i 0 d
    | Circuit.Gate (g, fi) -> Gate.eval g (Array.mapi (fun pin f -> read i pin f) fi)
  in
  if i = stem_net then stem_val else v

let propagate env (fault : Fault.t) =
  env.cur <- env.cur + 1;
  env.changed <- [];
  let stem_net, stem_val, branch_node, branch_pin, branch_val =
    match fault.Fault.site with
    | Fault.Stem n -> (n, V3.of_bool fault.Fault.stuck, -1, -1, V3.X)
    | Fault.Branch { node; pin } ->
      (-1, V3.X, node, pin, V3.of_bool fault.Fault.stuck)
  in
  let queue = Queue.create () in
  let enqueue_consumers n =
    Array.iter (fun consumer -> Queue.add consumer queue) env.c.Circuit.fanout.(n)
  in
  (match fault.Fault.site with
   | Fault.Stem n ->
     if not (V3.equal env.good.(n) stem_val) then begin
       set env n stem_val;
       enqueue_consumers n
     end
   | Fault.Branch { node; _ } -> Queue.add node queue);
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    let old = get env i in
    let v =
      eval_faulty env ~stem_net ~stem_val ~branch_node ~branch_pin ~branch_val i
    in
    if not (V3.equal v old) then begin
      (* Widen oscillating feedback (possible through flip-flop loops in
         the steady-state view) to unknown; conservative for category 2. *)
      let v =
        if env.stamp.(i) = env.cur && env.updates.(i) >= 2 then V3.X else v
      in
      if not (V3.equal v old) then begin
        set env i v;
        env.updates.(i) <- env.updates.(i) + 1;
        enqueue_consumers i
      end
    end
  done

let locations_of env (fault : Fault.t) =
  let locs = ref [] in
  let add chain seg kind = locs := (chain, seg, kind) :: !locs in
  List.iter
    (fun n ->
      let v = get env n in
      if V3.is_binary v then
        List.iter (fun (chain, seg) -> add chain seg Forced_constant) env.chain_locs.(n);
      List.iter
        (fun (chain, seg, _node, _pin, is_xor) ->
          match v with
          | V3.X -> add chain seg Side_unknown
          | V3.Zero | V3.One ->
            (* A binary flip of an xor-family side input inverts the
               segment without forcing constants. *)
            if is_xor && V3.is_binary env.good.(n) && not (V3.equal v env.good.(n))
            then add chain seg Side_inverted)
        env.side_of.(n))
    env.changed;
  (* A branch fault sitting directly on an xor-family side pin inverts the
     segment without changing any net value. *)
  (match fault.Fault.site with
   | Fault.Branch { node; pin } ->
     let src = (Circuit.fanins env.c node).(pin) in
     List.iter
       (fun (chain, seg, n', p', is_xor) ->
         if n' = node && p' = pin && is_xor then
           let stuck = V3.of_bool fault.Fault.stuck in
           if V3.is_binary env.good.(src) && not (V3.equal env.good.(src) stuck)
           then add chain seg Side_inverted)
       env.side_of.(src)
   | Fault.Stem _ -> ());
  List.sort_uniq compare !locs

let categorize locations =
  if locations = [] then Cat3
  else if List.exists (fun (_, _, k) -> k = Side_unknown) locations then Cat2
  else Cat1

let run c config faults =
  let env = build_env c config in
  let infos =
    Array.map
      (fun fault ->
        propagate env fault;
        let locations = locations_of env fault in
        { fault; category = categorize locations; locations })
      faults
  in
  let idx cat =
    let acc = ref [] in
    Array.iteri (fun i info -> if info.category = cat then acc := i :: !acc) infos;
    Array.of_list (List.rev !acc)
  in
  let easy = idx Cat1 and hard = idx Cat2 in
  { infos; easy; hard; affecting = Array.length easy + Array.length hard }
