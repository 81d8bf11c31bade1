open Fst_logic

type node =
  | Input
  | Const of V3.t
  | Gate of Gate.t * int array
  | Dff of int

type t = {
  name : string;
  nodes : node array;
  net_names : string array;
  outputs : int array;
  inputs : int array;
  dffs : int array;
  fanout : int array array;
  topo : int array;
  level : int array;
}

exception Combinational_cycle of string
exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let fanins_of = function
  | Input | Const _ -> [||]
  | Gate (_, fi) -> fi
  | Dff d -> [| d |]

let validate ~nodes ~net_names ~outputs =
  let n = Array.length nodes in
  if Array.length net_names <> n then
    malformed "%d nodes but %d net names" n (Array.length net_names);
  let seen = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i name ->
      if Hashtbl.mem seen name then malformed "duplicate net name %S" name;
      Hashtbl.add seen name i)
    net_names;
  let bad id = id < 0 || id >= n in
  (* The message is formatted only when a check fails. *)
  let check_net kind at id =
    if bad id then malformed "%s at net %d references bad net %d" kind at id
  in
  Array.iteri
    (fun i nd ->
      match nd with
      | Input | Const _ -> ()
      | Gate (g, fi) ->
        if not (Gate.arity_ok g (Array.length fi)) then
          malformed "gate %s at net %d has %d fanins" (Gate.to_string g) i
            (Array.length fi);
        Array.iter (check_net "gate" i) fi
      | Dff d -> check_net "dff" i d)
    nodes;
  Array.iter
    (fun id -> if bad id then malformed "output list references bad net %d" id)
    outputs

(* Strongly-connected components of the gate subgraph (iterative Tarjan;
   sources break cycles, a gate reading itself is a one-node cycle). Each
   cyclic SCC is reported as one representative cycle: the shortest loop
   through its smallest net id, in signal-flow order. *)
let combinational_cycles nodes =
  let n = Array.length nodes in
  let is_gate i = match nodes.(i) with Gate _ -> true | _ -> false in
  let gate_fanins i =
    match nodes.(i) with
    | Gate (_, fi) -> fi
    | Input | Const _ | Dff _ -> [||]
  in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let frames = Stack.create () in
  let push_node v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    Stack.push (v, ref 0) frames
  in
  for root = 0 to n - 1 do
    if is_gate root && index.(root) = -1 then begin
      push_node root;
      while not (Stack.is_empty frames) do
        let v, pi = Stack.top frames in
        let fi = gate_fanins v in
        if !pi < Array.length fi then begin
          let w = fi.(!pi) in
          incr pi;
          if is_gate w then
            if index.(w) = -1 then push_node w
            else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        end
        else begin
          ignore (Stack.pop frames);
          (match Stack.top_opt frames with
           | Some (u, _) -> lowlink.(u) <- min lowlink.(u) lowlink.(v)
           | None -> ());
          if lowlink.(v) = index.(v) then begin
            let comp = ref [] in
            let stop = ref false in
            while not !stop do
              match !stack with
              | w :: rest ->
                stack := rest;
                on_stack.(w) <- false;
                comp := w :: !comp;
                if w = v then stop := true
              | [] -> stop := true
            done;
            let cyclic =
              match !comp with
              | [ w ] -> Array.exists (fun f -> f = w) (gate_fanins w)
              | _ :: _ :: _ -> true
              | [] -> false
            in
            if cyclic then sccs := !comp :: !sccs
          end
        end
      done
    end
  done;
  (* Representative cycle per SCC: BFS over dependency edges restricted to
     the component, from its smallest member back to itself. *)
  let cycle_of comp =
    let members = Hashtbl.create 16 in
    List.iter (fun i -> Hashtbl.replace members i ()) comp;
    let s = List.fold_left min (List.hd comp) comp in
    let parent = Hashtbl.create 16 in
    let queue = Queue.create () in
    Queue.add s queue;
    let found = ref false in
    while not (!found || Queue.is_empty queue) do
      let v = Queue.pop queue in
      Array.iter
        (fun w ->
          if not !found && Hashtbl.mem members w then
            if w = s then begin
              found := true;
              Hashtbl.replace parent s v
            end
            else if not (Hashtbl.mem parent w) then begin
              Hashtbl.replace parent w v;
              Queue.add w queue
            end)
        (gate_fanins v)
    done;
    (* [parent.(w)] is a consumer of [w], so following parents from [s]
       walks the cycle in signal-flow order until it closes back at [s]. *)
    let rec walk acc v =
      let p = Hashtbl.find parent v in
      if p = s then List.rev (v :: acc) else walk (v :: acc) p
    in
    if !found then walk [] s else comp
  in
  List.map cycle_of !sccs
  |> List.sort (fun a b -> compare (List.hd a) (List.hd b))

let compute_fanout nodes =
  let n = Array.length nodes in
  let counts = Array.make n 0 in
  let count_fanins i =
    Array.iter (fun f -> counts.(f) <- counts.(f) + 1) (fanins_of nodes.(i))
  in
  for i = 0 to n - 1 do
    count_fanins i
  done;
  let fanout = Array.map (fun c -> Array.make c (-1)) counts in
  let fill = Array.make n 0 in
  for i = 0 to n - 1 do
    Array.iter
      (fun f ->
        fanout.(f).(fill.(f)) <- i;
        fill.(f) <- fill.(f) + 1)
      (fanins_of nodes.(i))
  done;
  fanout

(* Kahn's algorithm over the combinational subgraph: inputs, constants and
   flip-flop outputs are sources; a Dff node consumes its data net but its
   own output breaks the cycle. *)
let compute_topo ~name ~net_names nodes fanout =
  let n = Array.length nodes in
  let pending = Array.make n 0 in
  let order = Array.make n (-1) in
  let pos = ref 0 in
  let queue = Queue.create () in
  let emit i =
    order.(!pos) <- i;
    incr pos
  in
  for i = 0 to n - 1 do
    match nodes.(i) with
    | Input | Const _ | Dff _ -> Queue.add i queue
    | Gate (_, fi) -> pending.(i) <- Array.length fi
  done;
  (* Dff nodes are emitted as sources (their output is available at the start
     of a cycle) even though their data fanin is combinational; the data net
     is read only when the clock ticks. *)
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    emit i;
    Array.iter
      (fun consumer ->
        match nodes.(consumer) with
        | Gate _ ->
          pending.(consumer) <- pending.(consumer) - 1;
          if pending.(consumer) = 0 then Queue.add consumer queue
        | Input | Const _ | Dff _ -> ())
      fanout.(i)
  done;
  if !pos <> n then begin
    let detail =
      match combinational_cycles nodes with
      | cycle :: _ ->
        let path = List.map (fun i -> net_names.(i)) cycle in
        Printf.sprintf "%s: combinational cycle %s"
          name
          (String.concat " -> " (path @ [ List.hd path ]))
      | [] -> name
    in
    raise (Combinational_cycle detail)
  end;
  order

let compute_levels nodes topo =
  let n = Array.length nodes in
  let level = Array.make n 0 in
  Array.iter
    (fun i ->
      match nodes.(i) with
      | Input | Const _ | Dff _ -> level.(i) <- 0
      | Gate (_, fi) ->
        let m = ref 0 in
        Array.iter (fun f -> if level.(f) > !m then m := level.(f)) fi;
        level.(i) <- !m + 1)
    topo;
  level

let collect_kind nodes pred =
  let acc = ref [] in
  for i = Array.length nodes - 1 downto 0 do
    if pred nodes.(i) then acc := i :: !acc
  done;
  Array.of_list !acc

let make ~name ~nodes ~net_names ~outputs =
  validate ~nodes ~net_names ~outputs;
  let fanout = compute_fanout nodes in
  let topo = compute_topo ~name ~net_names nodes fanout in
  let level = compute_levels nodes topo in
  let inputs = collect_kind nodes (function Input -> true | _ -> false) in
  let dffs = collect_kind nodes (function Dff _ -> true | _ -> false) in
  { name; nodes; net_names; outputs; inputs; dffs; fanout; topo; level }

let assemble ~name ~nodes ~net_names ~outputs ~fanout ~topo ~level =
  let inputs = collect_kind nodes (function Input -> true | _ -> false) in
  let dffs = collect_kind nodes (function Dff _ -> true | _ -> false) in
  { name; nodes; net_names; outputs; inputs; dffs; fanout; topo; level }

let num_nets c = Array.length c.nodes

let gate_count c =
  Array.fold_left
    (fun acc nd -> match nd with Gate _ -> acc + 1 | _ -> acc)
    0 c.nodes

let dff_count c = Array.length c.dffs
let input_count c = Array.length c.inputs
let node c n = c.nodes.(n)
let fanins c n = fanins_of c.nodes.(n)
let net_name c n = c.net_names.(n)

let find_net c name =
  let n = num_nets c in
  let rec loop i =
    if i >= n then raise Not_found
    else if String.equal c.net_names.(i) name then i
    else loop (i + 1)
  in
  loop 0

let is_input c n = match c.nodes.(n) with Input -> true | _ -> false
let is_dff c n = match c.nodes.(n) with Dff _ -> true | _ -> false
let is_output c n = Array.exists (fun o -> o = n) c.outputs

let max_fanin c =
  Array.fold_left
    (fun acc nd ->
      match nd with
      | Gate (_, fi) -> max acc (Array.length fi)
      | Input | Const _ | Dff _ -> acc)
    0 c.nodes

let depth c = Array.fold_left max 0 c.level

let pp_stats ppf c =
  Fmt.pf ppf "%s: %d nets, %d gates, %d FFs, %d PIs, %d POs, depth %d" c.name
    (num_nets c) (gate_count c) (dff_count c) (input_count c)
    (Array.length c.outputs) (depth c)
