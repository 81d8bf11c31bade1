(* The interpreted three-valued good-machine simulator, kept as the test
   reference for [Fst_sim.Compiled]. A state holds one [V3.t] per net,
   indexed by net id; every gate is evaluated through [Gate.eval] in
   topological order, so the semantics can be read off directly. Primary
   inputs and flip-flop outputs are set explicitly (or by [clock]); all
   values start at [X], matching an unknown power-on state. *)

open Fst_logic
open Fst_netlist

type state = { v : V3.t array; latch_buf : V3.t array }

let create (c : Circuit.t) =
  let n = Circuit.num_nets c in
  let st = { v = Array.make n V3.X; latch_buf = Array.make (Circuit.dff_count c) V3.X } in
  Array.iteri
    (fun i nd ->
      match nd with Circuit.Const k -> st.v.(i) <- k | _ -> ())
    c.Circuit.nodes;
  st

let value st n = st.v.(n)

(* The underlying array, indexed by net id; callers must not mutate it. *)
let values st = st.v

let set_input (c : Circuit.t) st n v =
  if not (Circuit.is_input c n) then
    invalid_arg (Printf.sprintf "Sim_oracle.set_input: net %d is not an input" n);
  st.v.(n) <- v

(* Forces the output of a flip-flop (test setup, a scanned-in state). *)
let set_ff (c : Circuit.t) st n v =
  if not (Circuit.is_dff c n) then
    invalid_arg (Printf.sprintf "Sim_oracle.set_ff: net %d is not a flip-flop" n);
  st.v.(n) <- v

let eval_node (c : Circuit.t) st i =
  match c.Circuit.nodes.(i) with
  | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> ()
  | Circuit.Gate (g, fi) ->
    let values = Array.map (fun f -> st.v.(f)) fi in
    st.v.(i) <- Gate.eval g values

let eval_comb (c : Circuit.t) st =
  Array.iter (fun i -> eval_node c st i) c.Circuit.topo

(* Latches every flip-flop's data value into its output (simultaneously
   across all flip-flops) and re-evaluates the combinational logic. *)
let clock (c : Circuit.t) st =
  let dffs = c.Circuit.dffs in
  Array.iteri
    (fun k ff ->
      match c.Circuit.nodes.(ff) with
      | Circuit.Dff data -> st.latch_buf.(k) <- st.v.(data)
      | Circuit.Input | Circuit.Const _ | Circuit.Gate _ -> assert false)
    dffs;
  Array.iteri (fun k ff -> st.v.(ff) <- st.latch_buf.(k)) dffs;
  eval_comb c st

let outputs (c : Circuit.t) st = Array.map (fun o -> st.v.(o)) c.Circuit.outputs

(* Drives a fresh state for [cycles] clock periods. Each cycle [t]: the
   [stimulus t] assignments are applied to primary inputs, combinational
   logic settles, [observe t st] is called, then the clock ticks. *)
let run c ~cycles ~stimulus ~observe =
  let st = create c in
  for t = 0 to cycles - 1 do
    List.iter (fun (n, v) -> set_input c st n v) (stimulus t);
    eval_comb c st;
    observe t st;
    clock c st
  done
