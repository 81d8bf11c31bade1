open Fst_logic
open Fst_netlist
open Fst_fault

type origin = Pi of { frame : int; net : int } | State of int

type t = {
  original : Circuit.t;
  frames : int;
  view : View.t;
  net_at : int array array;
  origin_of : (int, origin) Hashtbl.t;
  capture_of : int array; (* orig ff net -> capture-buffer net, or -1 *)
}

let build (c : Circuit.t) ~frames ~constraints ~controllable_ff ~observable_ff =
  assert (frames >= 1);
  let n = Circuit.num_nets c in
  let fixed_pi = Array.make n None in
  List.iter (fun (i, v) -> fixed_pi.(i) <- Some v) constraints;
  let observable_ffs =
    Array.to_list c.Circuit.dffs |> List.filter observable_ff
  in
  let total = (frames * n) + List.length observable_ffs in
  let nodes = Array.make total Circuit.Input in
  let names = Array.make total "" in
  (* Net mapping is closed-form: frame [f], original [i] -> [f*n + i]. *)
  let net_at = Array.init frames (fun f -> Array.init n (fun i -> (f * n) + i)) in
  let origin_of = Hashtbl.create 64 in
  let free = ref [] in
  for f = 0 to frames - 1 do
    let suffix = "@" ^ string_of_int f in
    for i = 0 to n - 1 do
      let id = (f * n) + i in
      names.(id) <- Circuit.net_name c i ^ suffix;
      let node =
        match c.Circuit.nodes.(i) with
        | Circuit.Input -> (
          match fixed_pi.(i) with
          | Some v -> Circuit.Const v
          | None ->
            Hashtbl.replace origin_of id (Pi { frame = f; net = i });
            free := id :: !free;
            Circuit.Input)
        | Circuit.Const v -> Circuit.Const v
        | Circuit.Gate (g, fi) ->
          let fi' = Array.make (Array.length fi) 0 in
          for k = 0 to Array.length fi - 1 do
            fi'.(k) <- (f * n) + fi.(k)
          done;
          Circuit.Gate (g, fi')
        | Circuit.Dff data ->
          if f = 0 then
            if controllable_ff i then begin
              Hashtbl.replace origin_of id (State i);
              free := id :: !free;
              Circuit.Input
            end
            else Circuit.Const V3.X
          else Circuit.Gate (Gate.Buf, [| ((f - 1) * n) + data |])
      in
      nodes.(id) <- node
    done
  done;
  let capture_of = Array.make n (-1) in
  List.iteri
    (fun k ff ->
      let id = (frames * n) + k in
      let data =
        match Circuit.node c ff with
        | Circuit.Dff d -> d
        | Circuit.Input | Circuit.Const _ | Circuit.Gate _ -> assert false
      in
      nodes.(id) <- Circuit.Gate (Gate.Buf, [| net_at.(frames - 1).(data) |]);
      names.(id) <- Circuit.net_name c ff ^ "@cap";
      capture_of.(ff) <- id)
    observable_ffs;
  (* Observation points: every frame's primary outputs; the state an
     observable flip-flop holds in frames 1..frames-1 (a buffer output, so
     branch faults on the data pin are seen); and its final captured value. *)
  let observe = ref [] in
  for f = 0 to frames - 1 do
    Array.iter
      (fun o -> observe := View.Onet net_at.(f).(o) :: !observe)
      c.Circuit.outputs
  done;
  List.iter
    (fun ff ->
      for f = 1 to frames - 1 do
        observe := View.Onet net_at.(f).(ff) :: !observe
      done;
      observe := View.Onet capture_of.(ff) :: !observe)
    observable_ffs;
  (* Fanout, topological order and levels come from the original circuit
     by frame offset, so [Circuit.make]'s checks and derivations are not
     paid again for a model that is valid by construction. Net [i] of
     frame [f] feeds its gate consumers in frame [f], the flip-flops it
     is the data of as frame [f + 1]'s buffers, and in the last frame
     their capture buffers: in ascending consumer order, as
     [Circuit.make] lists them. *)
  let is_gate =
    Array.map
      (function
        | Circuit.Gate _ -> true
        | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> false)
      c.Circuit.nodes
  in
  let fanout = Array.make total [||] in
  for i = 0 to n - 1 do
    let fo = c.Circuit.fanout.(i) in
    let len = Array.length fo in
    let n_gates = ref 0 and n_caps = ref 0 in
    for k = 0 to len - 1 do
      let x = fo.(k) in
      if is_gate.(x) then incr n_gates
      else if capture_of.(x) >= 0 then incr n_caps
    done;
    for f = 0 to frames - 1 do
      let last = f + 1 = frames in
      let a = Array.make (if last then !n_gates + !n_caps else len) 0 in
      let g = ref 0 and j = ref !n_gates in
      for k = 0 to len - 1 do
        let x = fo.(k) in
        if is_gate.(x) then begin
          a.(!g) <- (f * n) + x;
          incr g
        end
        else if not last then begin
          a.(!j) <- ((f + 1) * n) + x;
          incr j
        end
        else if capture_of.(x) >= 0 then begin
          a.(!j) <- capture_of.(x);
          incr j
        end
      done;
      fanout.((f * n) + i) <- a
    done
  done;
  (* Frame after frame in the original order: a frame's flip-flop
     buffers read the previous frame, and the capture buffers come
     last. *)
  let topo = Array.make total 0 in
  let level = Array.make total 0 in
  let visit id =
    match nodes.(id) with
    | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> ()
    | Circuit.Gate (_, fi) ->
      let m = ref 0 in
      for k = 0 to Array.length fi - 1 do
        if level.(fi.(k)) > !m then m := level.(fi.(k))
      done;
      level.(id) <- !m + 1
  in
  let order = c.Circuit.topo in
  for f = 0 to frames - 1 do
    for k = 0 to n - 1 do
      let id = (f * n) + order.(k) in
      topo.((f * n) + k) <- id;
      visit id
    done
  done;
  for id = frames * n to total - 1 do
    topo.(id) <- id;
    visit id
  done;
  let uc =
    Circuit.assemble
      ~name:(Printf.sprintf "%s#x%d" c.Circuit.name frames)
      ~nodes ~net_names:names ~outputs:[||] ~fanout ~topo ~level
  in
  let view = View.make uc ~free:!free ~fixed:[] ~observe:!observe in
  { original = c; frames; view; net_at; origin_of; capture_of }

let map_fault u (fault : Fault.t) =
  let c = u.original in
  let acc = ref [] in
  (match fault.Fault.site with
   | Fault.Stem net ->
     for f = 0 to u.frames - 1 do
       acc :=
         { Fault.site = Fault.Stem u.net_at.(f).(net); stuck = fault.Fault.stuck }
         :: !acc
     done;
     if Circuit.is_dff c net && u.capture_of.(net) >= 0 then
       acc :=
         { Fault.site = Fault.Stem u.capture_of.(net); stuck = fault.Fault.stuck }
         :: !acc
   | Fault.Branch { node; pin } -> (
     match Circuit.node c node with
     | Circuit.Gate _ ->
       for f = 0 to u.frames - 1 do
         acc :=
           {
             Fault.site = Fault.Branch { node = u.net_at.(f).(node); pin };
             stuck = fault.Fault.stuck;
           }
           :: !acc
       done
     | Circuit.Dff _ ->
       for f = 1 to u.frames - 1 do
         acc :=
           {
             Fault.site = Fault.Branch { node = u.net_at.(f).(node); pin = 0 };
             stuck = fault.Fault.stuck;
           }
           :: !acc
       done;
       if u.capture_of.(node) >= 0 then
         acc :=
           {
             Fault.site = Fault.Branch { node = u.capture_of.(node); pin = 0 };
             stuck = fault.Fault.stuck;
           }
           :: !acc
     | Circuit.Input | Circuit.Const _ -> assert false));
  !acc

let origin u net =
  match Hashtbl.find_opt u.origin_of net with
  | Some o -> o
  | None -> invalid_arg (Printf.sprintf "Unroll.origin: net %d is not free" net)
