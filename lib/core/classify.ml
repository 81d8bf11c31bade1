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
  mutable changed : int array; (* the nets this propagation [set], ... *)
  mutable n_changed : int; (* ... in [changed.(0 .. n_changed - 1)] *)
  (* The propagation's FIFO of nets to re-evaluate, duplicates kept: a
     ring of [Array.length ring] slots from [head], [size] long. *)
  mutable ring : int array;
  mutable head : int;
  mutable size : int;
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
    changed = Array.make 64 0;
    n_changed = 0;
    ring = Array.make 64 0;
    head = 0;
    size = 0;
  }

let[@inline] get env n =
  if env.stamp.(n) = env.cur then env.fv.(n) else env.good.(n)

(* [a] with room for [need] entries: doubled, the first [keep] kept. *)
let grow a ~need ~keep =
  if need <= Array.length a then a
  else begin
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 keep;
    b
  end

let set env n v =
  if env.stamp.(n) <> env.cur then begin
    env.stamp.(n) <- env.cur;
    env.updates.(n) <- 0;
    let k = env.n_changed in
    env.changed <- grow env.changed ~need:(k + 1) ~keep:k;
    env.changed.(k) <- n;
    env.n_changed <- k + 1
  end;
  env.fv.(n) <- v

let[@inline] push env n =
  let cap = Array.length env.ring in
  if env.size = cap then begin
    (* Unroll the ring from [head] into a doubled one. *)
    let ring = Array.make (2 * cap) 0 in
    Array.blit env.ring env.head ring 0 (cap - env.head);
    Array.blit env.ring 0 ring (cap - env.head) env.head;
    env.ring <- ring;
    env.head <- 0
  end;
  let k = env.head + env.size in
  let cap = Array.length env.ring in
  env.ring.(if k >= cap then k - cap else k) <- n;
  env.size <- env.size + 1

let[@inline] pop env =
  let n = env.ring.(env.head) in
  let h = env.head + 1 in
  env.head <- (if h = Array.length env.ring then 0 else h);
  env.size <- env.size - 1;
  n

(* The value pin [pin] of node [i] reads from net [net]. *)
let[@inline] pin_value env ~branch_node ~branch_pin ~branch_val i pin net =
  if i = branch_node && pin = branch_pin then branch_val else get env net

(* Steady-state faulty value of node [i] under the scan-mode constants;
   flip-flops are transparent (the analysis is over the scan-mode fixpoint,
   as in the paper's Figure 3 where implications cross flip-flops). Pin
   [branch_pin] of node [branch_node] reads [branch_val]. A gate's value
   follows from which values its pins carry and the parity of its ones
   ([Gate.of_inputs]), gathered in one pass with no allocation. *)
let eval_faulty env ~stem_net ~stem_val ~branch_node ~branch_pin ~branch_val i =
  let v =
    match env.c.Circuit.nodes.(i) with
    | Circuit.Input -> env.good.(i)
    | Circuit.Const k -> k
    | Circuit.Dff d -> pin_value env ~branch_node ~branch_pin ~branch_val i 0 d
    | Circuit.Gate (g, fi) ->
      let zero = ref false and one = ref false and x = ref false
      and odd = ref false in
      for pin = 0 to Array.length fi - 1 do
        match pin_value env ~branch_node ~branch_pin ~branch_val i pin fi.(pin) with
        | V3.Zero -> zero := true
        | V3.One ->
          one := true;
          odd := not !odd
        | V3.X -> x := true
      done;
      Gate.of_inputs g ~zero:!zero ~one:!one ~x:!x ~odd:!odd
  in
  if i = stem_net then stem_val else v

let enqueue_consumers env n =
  let fo = env.c.Circuit.fanout.(n) in
  for k = 0 to Array.length fo - 1 do
    push env fo.(k)
  done

let propagate env (fault : Fault.t) =
  env.cur <- env.cur + 1;
  env.n_changed <- 0;
  let stem_net, stem_val, branch_node, branch_pin, branch_val =
    match fault.Fault.site with
    | Fault.Stem n -> (n, V3.of_bool fault.Fault.stuck, -1, -1, V3.X)
    | Fault.Branch { node; pin } ->
      (-1, V3.X, node, pin, V3.of_bool fault.Fault.stuck)
  in
  env.head <- 0;
  env.size <- 0;
  (match fault.Fault.site with
   | Fault.Stem n ->
     if not (V3.equal env.good.(n) stem_val) then begin
       set env n stem_val;
       enqueue_consumers env n
     end
   | Fault.Branch { node; _ } -> push env node);
  while env.size > 0 do
    let i = pop env in
    let old = get env i in
    let v =
      eval_faulty env ~stem_net ~stem_val ~branch_node ~branch_pin ~branch_val i
    in
    (* [V3.t] has constant constructors only, so [!=] compares values. *)
    if v != old then begin
      (* Widen oscillating feedback (possible through flip-flop loops in
         the steady-state view) to unknown; conservative for category 2. *)
      let v =
        if env.stamp.(i) = env.cur && env.updates.(i) >= 2 then V3.X else v
      in
      if v != old then begin
        set env i v;
        env.updates.(i) <- env.updates.(i) + 1;
        enqueue_consumers env i
      end
    end
  done

let locations_of env (fault : Fault.t) =
  let locs = ref [] in
  let add chain seg kind = locs := (chain, seg, kind) :: !locs in
  for k = 0 to env.n_changed - 1 do
    let n = env.changed.(k) in
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
      env.side_of.(n)
  done;
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
