open Fst_logic
open Fst_netlist

type t = { cc0 : int array; cc1 : int array; obs : int array }

let infinite = 1_000_000_000
let ( +! ) a b = if a >= infinite || b >= infinite then infinite else a + b

let cc m net = function
  | V3.Zero -> m.cc0.(net)
  | V3.One -> m.cc1.(net)
  | V3.X -> Int.min m.cc0.(net) m.cc1.(net)

(* Sum and minimum of the costs [a] of the fanins [fi]. *)
let sum_cc a fi =
  let acc = ref 0 in
  for k = 0 to Array.length fi - 1 do
    acc := !acc +! a.(fi.(k))
  done;
  !acc

let min_cc a fi =
  let acc = ref infinite in
  for k = 0 to Array.length fi - 1 do
    acc := Int.min !acc a.(fi.(k))
  done;
  !acc

(* Parity-style controllability for xor chains: the cheapest assignment of
   the fanins yielding even/odd numbers of ones, folded pairwise. *)
let xor_cc cc0 cc1 fi =
  let even = ref 0 and odd = ref infinite in
  Array.iter
    (fun f ->
      let e = Int.min (!even +! cc0.(f)) (!odd +! cc1.(f)) in
      let o = Int.min (!even +! cc1.(f)) (!odd +! cc0.(f)) in
      even := e;
      odd := o)
    fi;
  (!even, !odd)

let controllability (v : View.t) =
  let c = v.View.circuit in
  let n = Circuit.num_nets c in
  let cc0 = Array.make n infinite and cc1 = Array.make n infinite in
  let source i =
    if v.View.free.(i) then begin
      cc0.(i) <- 1;
      cc1.(i) <- 1
    end
    else
      match v.View.fixed.(i) with
      | Some V3.Zero -> cc0.(i) <- 0
      | Some V3.One -> cc1.(i) <- 0
      | Some V3.X | None -> ()
  in
  Array.iter
    (fun i ->
      match c.Circuit.nodes.(i) with
      | Circuit.Input | Circuit.Dff _ -> source i
      | Circuit.Const V3.Zero -> cc0.(i) <- 0
      | Circuit.Const V3.One -> cc1.(i) <- 0
      | Circuit.Const V3.X -> ()
      | Circuit.Gate (g, fi) -> (
        match g with
        | Gate.And ->
          cc1.(i) <- sum_cc cc1 fi +! 1;
          cc0.(i) <- min_cc cc0 fi +! 1
        | Gate.Nand ->
          cc0.(i) <- sum_cc cc1 fi +! 1;
          cc1.(i) <- min_cc cc0 fi +! 1
        | Gate.Or ->
          cc0.(i) <- sum_cc cc0 fi +! 1;
          cc1.(i) <- min_cc cc1 fi +! 1
        | Gate.Nor ->
          cc1.(i) <- sum_cc cc0 fi +! 1;
          cc0.(i) <- min_cc cc1 fi +! 1
        | Gate.Not ->
          cc0.(i) <- cc1.(fi.(0)) +! 1;
          cc1.(i) <- cc0.(fi.(0)) +! 1
        | Gate.Buf ->
          cc0.(i) <- cc0.(fi.(0)) +! 1;
          cc1.(i) <- cc1.(fi.(0)) +! 1
        | Gate.Xor ->
          let even, odd = xor_cc cc0 cc1 fi in
          cc0.(i) <- even +! 1;
          cc1.(i) <- odd +! 1
        | Gate.Xnor ->
          let even, odd = xor_cc cc0 cc1 fi in
          cc1.(i) <- even +! 1;
          cc0.(i) <- odd +! 1))
    c.Circuit.topo;
  (cc0, cc1)

(* Cost to make every side input of [node] transparent for pin [pin]. *)
let side_cost cc0 cc1 g fi pin =
  let cost = ref 0 in
  for j = 0 to Array.length fi - 1 do
    if j <> pin then begin
      let f = fi.(j) in
      let extra =
        match g with
        | Gate.And | Gate.Nand -> cc1.(f)
        | Gate.Or | Gate.Nor -> cc0.(f)
        | Gate.Xor | Gate.Xnor -> Int.min cc0.(f) cc1.(f)
        | Gate.Not | Gate.Buf -> 0
      in
      cost := !cost +! extra
    end
  done;
  !cost

let observability (v : View.t) cc0 cc1 =
  let c = v.View.circuit in
  let n = Circuit.num_nets c in
  let obs = Array.make n infinite in
  Array.iter
    (fun op -> obs.(View.obs_source_net v op) <- 0)
    v.View.observe;
  (* Walk gates from outputs toward inputs: reverse topological order. *)
  for k = Array.length c.Circuit.topo - 1 downto 0 do
    let i = c.Circuit.topo.(k) in
    match c.Circuit.nodes.(i) with
    | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> ()
    | Circuit.Gate (g, fi) ->
      if obs.(i) < infinite then
        for pin = 0 to Array.length fi - 1 do
          let f = fi.(pin) in
          let through = obs.(i) +! side_cost cc0 cc1 g fi pin +! 1 in
          if through < obs.(f) then obs.(f) <- through
        done
  done;
  obs

let compute v =
  let cc0, cc1 = controllability v in
  let obs = observability v cc0 cc1 in
  { cc0; cc1; obs }
