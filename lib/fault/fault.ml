open Fst_logic
open Fst_netlist

type site = Stem of int | Branch of { node : int; pin : int }
type t = { site : site; stuck : bool }

let equal a b =
  a.stuck = b.stuck
  &&
  match a.site, b.site with
  | Stem m, Stem n -> m = n
  | Branch a, Branch b -> a.node = b.node && a.pin = b.pin
  | Stem _, Branch _ | Branch _, Stem _ -> false

let site_key = function
  | Stem n -> (0, n, 0)
  | Branch { node; pin } -> (1, node, pin)

let compare a b =
  match Stdlib.compare (site_key a.site) (site_key b.site) with
  | 0 -> Bool.compare a.stuck b.stuck
  | c -> c

let hash f = Hashtbl.hash (site_key f.site, f.stuck)

let site_net (c : Circuit.t) f =
  match f.site with
  | Stem n -> n
  | Branch { node; pin } -> (Circuit.fanins c node).(pin)

let to_string c f =
  let value = if f.stuck then 1 else 0 in
  match f.site with
  | Stem n -> Printf.sprintf "%s s-a-%d" (Circuit.net_name c n) value
  | Branch { node; pin } ->
    Printf.sprintf "%s.%d(<-%s) s-a-%d" (Circuit.net_name c node) pin
      (Circuit.net_name c (site_net c f))
      value

let pp c ppf f = Fmt.string ppf (to_string c f)

let universe (c : Circuit.t) =
  let acc = ref [] in
  let n = Circuit.num_nets c in
  (* Branch faults, enumerated per consumer pin, high ids first so the final
     list is ordered. *)
  for i = n - 1 downto 0 do
    let fi = Circuit.fanins c i in
    for pin = Array.length fi - 1 downto 0 do
      let src = fi.(pin) in
      if Array.length c.Circuit.fanout.(src) > 1 then begin
        acc := { site = Branch { node = i; pin }; stuck = true } :: !acc;
        acc := { site = Branch { node = i; pin }; stuck = false } :: !acc
      end
    done
  done;
  for i = n - 1 downto 0 do
    acc := { site = Stem i; stuck = true } :: !acc;
    acc := { site = Stem i; stuck = false } :: !acc
  done;
  Array.of_list !acc

module Union_find = struct
  type t = { parent : int array; rank : int array }

  let create n = { parent = Array.init n (fun i -> i); rank = Array.make n 0 }

  let rec find u i =
    if u.parent.(i) = i then i
    else begin
      let r = find u u.parent.(i) in
      u.parent.(i) <- r;
      r
    end

  let union u a b =
    let ra = find u a and rb = find u b in
    if ra <> rb then
      if u.rank.(ra) < u.rank.(rb) then u.parent.(ra) <- rb
      else if u.rank.(ra) > u.rank.(rb) then u.parent.(rb) <- ra
      else begin
        u.parent.(rb) <- ra;
        u.rank.(ra) <- u.rank.(ra) + 1
      end
end

(* The fault on a fanin pin: the stem fault of the source when the source
   has a single consumer, otherwise the branch fault on that pin. *)
let pin_fault (c : Circuit.t) ~node ~pin ~stuck =
  let src = (Circuit.fanins c node).(pin) in
  if Array.length c.Circuit.fanout.(src) > 1 then
    { site = Branch { node; pin }; stuck }
  else { site = Stem src; stuck }

(* Structural equivalences: a controlling value at a gate input is
   indistinguishable from the corresponding output fault; inverters,
   buffers and flip-flops propagate both faults. *)
let equivalences (c : Circuit.t) =
  let pairs = ref [] in
  let add a b = pairs := (a, b) :: !pairs in
  let n = Circuit.num_nets c in
  for i = 0 to n - 1 do
    match Circuit.node c i with
    | Circuit.Input | Circuit.Const _ -> ()
    | Circuit.Dff _ ->
      add (pin_fault c ~node:i ~pin:0 ~stuck:false) { site = Stem i; stuck = false };
      add (pin_fault c ~node:i ~pin:0 ~stuck:true) { site = Stem i; stuck = true }
    | Circuit.Gate (g, fi) -> (
      match g with
      | Gate.Not | Gate.Buf ->
        let invert = Gate.inverting g in
        let out_for v = if invert then not v else v in
        add (pin_fault c ~node:i ~pin:0 ~stuck:false)
          { site = Stem i; stuck = out_for false };
        add (pin_fault c ~node:i ~pin:0 ~stuck:true)
          { site = Stem i; stuck = out_for true }
      | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
        let ctrl =
          match Gate.controlling g with
          | Some V3.Zero -> false
          | Some V3.One -> true
          | Some V3.X | None -> assert false
        in
        let out =
          match Gate.controlled_output g with
          | V3.Zero -> false
          | V3.One -> true
          | V3.X -> assert false
        in
        Array.iteri
          (fun pin _ ->
            add (pin_fault c ~node:i ~pin ~stuck:ctrl)
              { site = Stem i; stuck = out })
          fi
      | Gate.Xor | Gate.Xnor -> ())
  done;
  !pairs

let collapse_classes (c : Circuit.t) faults =
  let nf = Array.length faults in
  let index = Hashtbl.create (2 * nf) in
  Array.iteri (fun i f -> Hashtbl.replace index f i) faults;
  let uf = Union_find.create nf in
  List.iter
    (fun (a, b) ->
      match Hashtbl.find_opt index a, Hashtbl.find_opt index b with
      | Some ia, Some ib -> Union_find.union uf ia ib
      | _, _ -> ())
    (equivalences c);
  (* Representative = the class member lowest in [compare] order, so the
     choice is deterministic under permutations of the input. For
     [universe] input (sorted by [compare]) this coincides with the lowest
     original index. *)
  let best = Array.make nf (-1) in
  Array.iteri
    (fun i f ->
      let r = Union_find.find uf i in
      if best.(r) < 0 || compare f faults.(best.(r)) < 0 then best.(r) <- i)
    faults;
  let reps = ref [] in
  let rep_index_of = Array.make nf (-1) in
  let count = ref 0 in
  for i = 0 to nf - 1 do
    let r = Union_find.find uf i in
    if best.(r) = i then begin
      reps := faults.(i) :: !reps;
      rep_index_of.(r) <- !count;
      incr count
    end
  done;
  let class_of = Array.init nf (fun i -> rep_index_of.(Union_find.find uf i)) in
  (Array.of_list (List.rev !reps), class_of)

let collapse c faults = fst (collapse_classes c faults)

(* The seed of a fault's influence is the stem net for a stem fault and
   the faulted consumer node (whose output net shares the node's id) for
   a branch fault: a branch override is only visible through that node's
   evaluation. *)
let seed f = match f.site with Stem n -> n | Branch { node; _ } -> node
