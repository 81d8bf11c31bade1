open Fst_logic

type obs_point = Onet of int | Opin of { node : int; pin : int }

type t = {
  circuit : Circuit.t;
  free : bool array;
  fixed : V3.t option array;
  observe : obs_point array;
}

let is_source (c : Circuit.t) n =
  match Circuit.node c n with
  | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> true
  | Circuit.Gate _ -> false

let make (c : Circuit.t) ~free ~fixed ~observe =
  let n = Circuit.num_nets c in
  let free_arr = Array.make n false in
  let fixed_arr = Array.make n None in
  List.iter
    (fun i ->
      if not (is_source c i) then
        invalid_arg
          (Printf.sprintf "View.make: free net %d is gate-driven" i);
      free_arr.(i) <- true)
    free;
  List.iter
    (fun (i, v) ->
      if free_arr.(i) then
        invalid_arg (Printf.sprintf "View.make: net %d both free and fixed" i);
      fixed_arr.(i) <- Some v)
    fixed;
  { circuit = c; free = free_arr; fixed = fixed_arr; observe = Array.of_list observe }

let scan_mode (c : Circuit.t) ~constraints =
  let constrained = List.map fst constraints in
  let free_pis =
    Array.to_list c.Circuit.inputs
    |> List.filter (fun i -> not (List.mem i constrained))
  in
  let free = free_pis @ Array.to_list c.Circuit.dffs in
  let observe =
    List.map (fun o -> Onet o) (Array.to_list c.Circuit.outputs)
    @ List.map (fun ff -> Opin { node = ff; pin = 0 }) (Array.to_list c.Circuit.dffs)
  in
  make c ~free ~fixed:constraints ~observe

let obs_source_net v = function
  | Onet n -> n
  | Opin { node; pin } -> (Circuit.fanins v.circuit node).(pin)

let free_inputs v =
  let acc = ref [] in
  for i = Array.length v.free - 1 downto 0 do
    if v.free.(i) then acc := i :: !acc
  done;
  Array.of_list !acc
