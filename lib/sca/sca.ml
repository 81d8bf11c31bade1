open Fst_logic
open Fst_netlist
open Fst_fault
module J = Fst_obs.Json

type reason =
  | Tied
  | Forward of int
  | Backward of { node : int; pin : int }
  | Assumed
  | Learned of int

type graph = { off : int array; dst : int array }

let lit ~net ~value = (2 * net) + if value then 1 else 0

type blocker = { node : int; pin : int; side : int; ctrl : V3.t }

type branch_evidence = Conflict | Excitation of V3.t | Cut of blocker list

(* How a single literal [net = value] is refuted. [Direct]: assuming it
   propagates to a contradiction. [Via]: the literal forces [via = value],
   which in turn forces the literal's negation — two deduction steps
   composing to a contradiction. [Cases on]: [on] is definitely binary and
   both of its values force the literal's negation. *)
type refutation = Direct | Via of { via : int; value : V3.t } | Cases of int

type proof =
  | Unexcitable
  | Unobservable of blocker list
  | Fire of { m : int; if0 : branch_evidence; if1 : branch_evidence }
  | Requires of {
      pin : int option;
      net : int;
      value : V3.t;
      refutation : refutation;
    }
  | Dominated of Fault.t

type untestable = { fault : Fault.t; proof : proof }

type stats = {
  nets : int;
  targets : int;
  constants : int;
  implications : int;
  learned : int;
  impossible : int;
  untestable : int;
  dominance_edges : int;
  seconds : float;
}

type t = {
  view : View.t;
  base : V3.t array;
  base_reason : reason option array;
  def_binary : bool array;
  impossible : bool array;
  graph : graph;
  untestable : untestable list;
  dominance : (Fault.t * Fault.t) list;
  stats : stats;
}

module FH = Hashtbl.Make (struct
  type t = Fault.t

  let equal = Fault.equal
  let hash = Fault.hash
end)

(* ------------------------------------------------------------------ *)
(* Propagation engine                                                  *)
(* ------------------------------------------------------------------ *)

exception Contradiction

(* Shared mutable propagation state. [work] refines [base] between
   [undo_to] calls; the trail records every assignment made after the base
   fixpoint. Each net appears at most once on the trail (values only go
   X -> binary), which is what makes [undo_to] restoring base values
   correct. *)
type prop = {
  c : Circuit.t;
  base : V3.t array;
  work : V3.t array;
  uncontrollable : bool array;
      (* source reads as permanent X: a binary value there is absurd *)
  mutable trail : (int * V3.t * reason) list;
  q : int Queue.t;
  pos : int array;  (* topological position of each net *)
  learn_base : int list;
      (* ascending topological positions of the gates the base leaves
         unjustified (at their controlled output, no fanin at the
         controlling value): with the gates on the trail, the only ones
         {!recursive_learn} can pick *)
}

let assign p n v reason =
  if V3.is_binary v then begin
    let cur = p.work.(n) in
    if V3.equal cur v then ()
    else if V3.is_binary cur || p.uncontrollable.(n) then raise Contradiction
    else begin
      p.work.(n) <- v;
      p.trail <- (n, v, reason) :: p.trail;
      Queue.add n p.q
    end
  end

let eval_fanins p fan = Array.map (fun k -> p.work.(k)) fan

(* Forward: the gate's output follows from its fanins (a conflict with an
   already-known output surfaces inside [assign]). *)
let forward p j g fan = assign p j (Gate.eval g (eval_fanins p fan)) (Forward j)

(* Backward: the gate's output is known; justify what must hold at its
   fanins. Unit-solves the last unknown input for every gate type, and
   forces all inputs non-controlling when the output is at the
   non-controlled value. *)
let backward p j g fan =
  let v = p.work.(j) in
  if V3.is_binary v then begin
    let unknown = ref (-1) and n_unknown = ref 0 in
    Array.iteri
      (fun q k ->
        if not (V3.is_binary p.work.(k)) then begin
          unknown := q;
          incr n_unknown
        end)
      fan;
    if !n_unknown = 0 then begin
      if not (V3.equal (Gate.eval g (eval_fanins p fan)) v) then
        raise Contradiction
    end
    else if !n_unknown = 1 then begin
      let q = !unknown in
      let vals = eval_fanins p fan in
      vals.(q) <- V3.Zero;
      let ok0 = V3.equal (Gate.eval g vals) v in
      vals.(q) <- V3.One;
      let ok1 = V3.equal (Gate.eval g vals) v in
      match ok0, ok1 with
      | true, true -> ()
      | true, false -> assign p fan.(q) V3.Zero (Backward { node = j; pin = q })
      | false, true -> assign p fan.(q) V3.One (Backward { node = j; pin = q })
      | false, false -> raise Contradiction
    end
    else
      match Gate.controlling g with
      | Some ctrl when V3.equal v (V3.bnot (Gate.controlled_output g)) ->
        Array.iteri
          (fun q k ->
            if not (V3.is_binary p.work.(k)) then
              assign p k (V3.bnot ctrl) (Backward { node = j; pin = q }))
          fan
      | _ -> ()
  end

let settle p =
  while not (Queue.is_empty p.q) do
    let n = Queue.pop p.q in
    (match Circuit.node p.c n with
    | Circuit.Gate (g, fan) -> backward p n g fan
    | _ -> ());
    Array.iter
      (fun j ->
        match Circuit.node p.c j with
        | Circuit.Gate (g, fan) ->
          forward p j g fan;
          backward p j g fan
        | _ -> ())
      p.c.Circuit.fanout.(n)
  done

(* Undo trail entries down to (physical) [mark], restoring base values. *)
let undo_to p mark =
  let rec go l =
    if l != mark then
      match l with
      | (n, _, _) :: tl ->
        p.work.(n) <- p.base.(n);
        go tl
      | [] -> assert false
  in
  go p.trail;
  p.trail <- mark;
  Queue.clear p.q

(* Run [assumptions] on top of the current state; on conflict the partial
   trail is left for the caller to undo. *)
let try_assume p assumptions =
  match
    List.iter (fun (n, v, r) -> assign p n v r) assumptions;
    settle p
  with
  | () -> true
  | exception Contradiction -> false

(* ------------------------------------------------------------------ *)
(* Base fixpoint and static net classes                                *)
(* ------------------------------------------------------------------ *)

let make_prop (view : View.t) =
  let c = view.View.circuit in
  let n = Circuit.num_nets c in
  let uncontrollable = Array.make n false in
  let seeds = ref [] in
  for i = 0 to n - 1 do
    match Circuit.node c i with
    | Circuit.Const v ->
      if V3.is_binary v then seeds := (i, v, Tied) :: !seeds
      else uncontrollable.(i) <- true
    | Circuit.Input | Circuit.Dff _ -> (
      match view.View.fixed.(i) with
      | Some v when V3.is_binary v -> seeds := (i, v, Tied) :: !seeds
      | Some _ -> uncontrollable.(i) <- true
      | None -> if not view.View.free.(i) then uncontrollable.(i) <- true)
    | Circuit.Gate _ -> ()
  done;
  let p =
    {
      c;
      base = Array.make n V3.X;
      work = Array.make n V3.X;
      uncontrollable;
      trail = [];
      q = Queue.create ();
      pos = Array.make n (-1);
      learn_base = [];
    }
  in
  (* cannot conflict: values are only derived forward from the (single
     driver per net) seeds *)
  let ok = try_assume p !seeds in
  assert ok;
  let reasons = Array.make n None in
  List.iter (fun (i, _, r) -> reasons.(i) <- Some r) p.trail;
  (* promote the fixpoint to the permanent base *)
  Array.blit p.work 0 p.base 0 n;
  p.trail <- [];
  let topo = c.Circuit.topo in
  Array.iteri (fun k i -> p.pos.(i) <- k) topo;
  let learn_base = ref [] in
  for k = Array.length topo - 1 downto 0 do
    match Circuit.node c topo.(k) with
    | Circuit.Gate (g, fan) -> (
      match Gate.controlling g with
      | Some ctrl
        when V3.equal p.base.(topo.(k)) (Gate.controlled_output g)
             && not (Array.exists (fun i -> V3.equal p.base.(i) ctrl) fan) ->
        learn_base := k :: !learn_base
      | _ -> ())
    | _ -> ()
  done;
  ({ p with learn_base = !learn_base }, reasons)

let compute_def_binary (view : View.t) base =
  let c = view.View.circuit in
  let n = Circuit.num_nets c in
  let def = Array.make n false in
  Array.iter
    (fun i ->
      def.(i) <-
        V3.is_binary base.(i)
        ||
        match Circuit.node c i with
        | Circuit.Const v -> V3.is_binary v
        | Circuit.Input | Circuit.Dff _ -> view.View.free.(i)
        | Circuit.Gate (_, fan) -> Array.for_all (fun k -> def.(k)) fan)
    c.Circuit.topo;
  def

let compute_obs_src (view : View.t) =
  let n = Circuit.num_nets view.View.circuit in
  let obs = Array.make n false in
  Array.iter
    (fun op -> obs.(View.obs_source_net view op) <- true)
    view.View.observe;
  obs

(* ------------------------------------------------------------------ *)
(* Fault-effect blocking                                               *)
(* ------------------------------------------------------------------ *)

exception Observable

type entry = Net of int | Blocked of blocker | Obs

(* A pin of gate [j] blocks every fault effect entering [j] when its side
   net is forced to the controlling value and lies outside the fault's
   cone (an in-cone side could carry the effect itself and re-open the
   path). *)
let blocker_of p in_cone j g fan =
  match Gate.controlling g with
  | None -> None
  | Some ctrl ->
    let found = ref None in
    Array.iteri
      (fun q k ->
        if !found = None && V3.equal p.work.(k) ctrl && not (in_cone k) then
          found := Some { node = j; pin = q; side = k; ctrl })
      fan;
    !found

(* Where the fault effect enters the net graph under the current
   assignment. A branch fault must first pass its own gate; [Obs] is the
   conservative "might be directly observed" answer. *)
let entry_of p in_cone (f : Fault.t) =
  match f.Fault.site with
  | Fault.Stem s -> Net s
  | Fault.Branch { node; pin } -> (
    match Circuit.node p.c node with
    | Circuit.Gate (g, fan) -> (
      match Gate.controlling g with
      | None -> Net node
      | Some ctrl ->
        let found = ref None in
        Array.iteri
          (fun q k ->
            if
              !found = None && q <> pin
              && V3.equal p.work.(k) ctrl
              && not (in_cone k)
            then found := Some { node; pin = q; side = k; ctrl })
          fan;
        (match !found with Some b -> Blocked b | None -> Net node))
    | Circuit.Dff _ | Circuit.Input | Circuit.Const _ -> Obs)

(* [entry_of] with an empty cone, resolved once per fault up to the
   state-dependent reads: a branch fault on a gate with a controlling
   value is blocked by any other pin forced to it. *)
type cheap_entry =
  | Cheap_obs
  | Cheap_net of int
  | Cheap_pin of { node : int; pin : int; fan : int array; ctrl : V3.t }

let cheap_entry c (f : Fault.t) =
  match f.Fault.site with
  | Fault.Stem s -> Cheap_net s
  | Fault.Branch { node; pin } -> (
    match Circuit.node c node with
    | Circuit.Gate (g, fan) -> (
      match Gate.controlling g with
      | None -> Cheap_net node
      | Some ctrl -> Cheap_pin { node; pin; fan; ctrl })
    | Circuit.Dff _ | Circuit.Input | Circuit.Const _ -> Cheap_obs)

(* Sound, cone-aware cut search: explore every net the effect could
   reach; collect the blocked gates on the frontier. [None] when an
   observation point is reachable. *)
let blocked_cut p obs_src in_cone seen entry =
  let cut = ref [] in
  let cleanup = ref [] in
  let rec go w =
    if not seen.(w) then begin
      seen.(w) <- true;
      cleanup := w :: !cleanup;
      if obs_src.(w) then raise Observable;
      Array.iter
        (fun j ->
          match Circuit.node p.c j with
          | Circuit.Gate (g, fan) ->
            if not seen.(j) then (
              match blocker_of p in_cone j g fan with
              | None -> go j
              | Some b -> cut := b :: !cut)
          | _ -> ())
        p.c.Circuit.fanout.(w)
    end
  in
  let result =
    match entry with
    | Obs -> None
    | Blocked b -> Some [ b ]
    | Net e -> (
      match go e with
      | () ->
        Some
          (List.sort_uniq
             (fun a b -> Stdlib.compare (a.node, a.pin) (b.node, b.pin))
             !cut)
      | exception Observable -> None)
  in
  List.iter (fun w -> seen.(w) <- false) !cleanup;
  result

(* Fault-independent observability marker: an effect at net [w] might
   reach an observation point, ignoring cones, when [w] drives an
   unblocked pin (no other pin forced to the controlling value) of a
   gate that is an observation source or itself marked. Only used to
   filter FIRE candidates; the sound per-fault check is [blocked_cut].

   Kept as support counts: [cnt.(w)] is the number of such pins [w]
   drives, so [w] is marked when it is positive. The base assignment's
   counts are computed once. A branch only forces more pins, so it only
   takes support away: [obs_retract] walks back from the gates next to
   the trail in reverse topological order, and [obs_restore] returns the
   counts to the base. *)
type obs_support = {
  obs_src : bool array;
  base_cnt : int array;
  cnt : int array;
  mutable retracted : int list;
}

(* The number of [fan]'s pins forced to [g]'s controlling value under
   [values], and the last of them; a pin is unblocked when no other pin
   is forced. *)
let forced_pins (values : V3.t array) g fan =
  match Gate.controlling g with
  | None -> (0, -1)
  | Some ctrl ->
    let n_forced = ref 0 and forced = ref (-1) in
    for q = 0 to Array.length fan - 1 do
      if V3.equal values.(fan.(q)) ctrl then begin
        incr n_forced;
        forced := q
      end
    done;
    (!n_forced, !forced)

let unblocked (n_forced, forced) q =
  n_forced = 0 || (n_forced = 1 && forced = q)

let obs_support p obs_src =
  let c = p.c in
  let cnt = Array.make (Circuit.num_nets c) 0 in
  let topo = c.Circuit.topo in
  for k = Array.length topo - 1 downto 0 do
    let i = topo.(k) in
    match Circuit.node c i with
    | Circuit.Gate (g, fan) when cnt.(i) > 0 || obs_src.(i) ->
      let forced = forced_pins p.base g fan in
      Array.iteri
        (fun q w -> if unblocked forced q then cnt.(w) <- cnt.(w) + 1)
        fan
    | _ -> ()
  done;
  { obs_src; base_cnt = Array.copy cnt; cnt; retracted = [] }

module Int_set = Set.Make (Int)

(* Each gate is settled once: support only flows from a gate to its
   fanins, which come earlier in topological order. *)
let obs_retract p o =
  let c = p.c in
  let topo = c.Circuit.topo in
  let pending = ref Int_set.empty in
  let push w =
    match Circuit.node c w with
    | Circuit.Gate _ -> pending := Int_set.add p.pos.(w) !pending
    | _ -> ()
  in
  List.iter (fun (n, _, _) -> Array.iter push c.Circuit.fanout.(n)) p.trail;
  while not (Int_set.is_empty !pending) do
    let k = Int_set.max_elt !pending in
    pending := Int_set.remove k !pending;
    let i = topo.(k) in
    match Circuit.node c i with
    | Circuit.Gate (g, fan) ->
      let was = o.base_cnt.(i) > 0 || o.obs_src.(i) in
      if was then begin
        let is = o.cnt.(i) > 0 || o.obs_src.(i) in
        let forced0 = forced_pins p.base g fan
        and forced = forced_pins p.work g fan in
        Array.iteri
          (fun q w ->
            if unblocked forced0 q && not (is && unblocked forced q) then begin
              o.cnt.(w) <- o.cnt.(w) - 1;
              o.retracted <- w :: o.retracted;
              if o.cnt.(w) = 0 then push w
            end)
          fan
      end
    | _ -> ()
  done

let obs_restore o =
  List.iter (fun w -> o.cnt.(w) <- o.cnt.(w) + 1) o.retracted;
  o.retracted <- []

(* ------------------------------------------------------------------ *)
(* Depth-1 recursive learning                                          *)
(* ------------------------------------------------------------------ *)

(* Net sets as bitsets over net indices. *)
let bit_mem bits w =
  Char.code (Bytes.get bits (w lsr 3)) land (1 lsl (w land 7)) <> 0

let bit_add bits w =
  let b = w lsr 3 in
  let byte = Char.code (Bytes.get bits b) lor (1 lsl (w land 7)) in
  Bytes.set bits b (Char.chr byte)

let stuck_value (f : Fault.t) = V3.of_bool f.Fault.stuck
let max_learn_gates = 2

(* Pick up to [max_learn_gates] unjustified gates (output at the
   controlled value, no input at the controlling value, >= 2 unknown
   inputs). Every way to justify one is tried; assignments common to all
   consistent justifications are learned into the current state. No
   consistent justification at all means the state is contradictory.
   Returns the number of learned assignments. *)
let recursive_learn p =
  let c = p.c in
  let learned = ref 0 in
  let picked = ref 0 in
  let topo = c.Circuit.topo in
  (* An unjustified gate sits at a binary value, so the scan in
     topological order visits only the base candidates and the gates
     assigned since the base, past position [after]. *)
  let candidates after =
    let assigned =
      List.filter_map
        (fun (n, _, _) ->
          let k = p.pos.(n) in
          if k > after then Some k else None)
        p.trail
    in
    List.merge Int.compare
      (List.filter (fun k -> k > after) p.learn_base)
      (List.sort Int.compare assigned)
  in
  let next = ref (candidates (-1)) in
  while !picked < max_learn_gates && !next <> [] do
    let k = List.hd !next in
    next := List.tl !next;
    let j = topo.(k) in
    match Circuit.node c j with
    | Circuit.Gate (g, fan) -> (
      match Gate.controlling g with
      | Some ctrl
        when V3.equal p.work.(j) (Gate.controlled_output g)
             && (not (Array.exists (fun i -> V3.equal p.work.(i) ctrl) fan))
             && Array.fold_left
                  (fun acc i ->
                    if V3.is_binary p.work.(i) then acc else acc + 1)
                  0 fan
                >= 2 ->
        incr picked;
        let common = ref None in
        Array.iter
          (fun i ->
            if not (V3.is_binary p.work.(i)) then begin
              let mark = p.trail in
              if try_assume p [ (i, ctrl, Assumed) ] then begin
                let branch = ref [] in
                let rec collect l =
                  if l != mark then
                    match l with
                    | (n, v, _) :: tl ->
                      branch := (n, v) :: !branch;
                      collect tl
                    | [] -> assert false
                in
                collect p.trail;
                undo_to p mark;
                common :=
                  Some
                    (match !common with
                    | None -> !branch
                    | Some prev ->
                      (* a trail holds each net once, so [prev] is a map *)
                      let prev_v = Hashtbl.create 64 in
                      List.iter (fun (n, v) -> Hashtbl.replace prev_v n v) prev;
                      List.filter
                        (fun (n, v) ->
                          match Hashtbl.find_opt prev_v n with
                          | Some v' -> V3.equal v v'
                          | None -> false)
                        !branch)
              end
              else undo_to p mark
            end)
          fan;
        (match !common with
        | None ->
          (* no input can supply the controlling value *)
          raise Contradiction
        | Some fixes ->
          List.iter
            (fun (n, v) ->
              if not (V3.is_binary p.work.(n)) then begin
                assign p n v (Learned j);
                incr learned
              end)
            fixes;
          settle p;
          next := candidates k)
      | _ -> ())
    | _ -> ()
  done;
  !learned

(* One deterministic deduction step: propagation plus depth-1 learning;
   [false] when the assumptions are contradictory. The refutations found
   by [analyze] and their re-derivation in [check] both go through this
   single entry point, so a shipped refutation always replays. *)
let deduce p assumptions =
  try_assume p assumptions
  &&
  match recursive_learn p with
  | _ -> true
  | exception Contradiction -> false

(* ------------------------------------------------------------------ *)
(* Dominance                                                           *)
(* ------------------------------------------------------------------ *)

(* For an and/or-family gate, every test for the [stuck-at not-c] fault
   on an input pin excites and propagates the [stuck-at not-o] fault on
   the output stem: the output fault dominates the pin fault, so a proven
   untestable output fault drags its pin faults along. *)
let dominance_pairs (c : Circuit.t) index =
  let pairs = ref [] in
  let n = Circuit.num_nets c in
  for i = 0 to n - 1 do
    match Circuit.node c i with
    | Circuit.Gate (g, fan) -> (
      match Gate.controlling g with
      | Some ctrl ->
        let out = Gate.controlled_output g in
        let dom = { Fault.site = Fault.Stem i; stuck = V3.equal out V3.Zero } in
        if FH.mem index dom then
          Array.iteri
            (fun pin _ ->
              let sub =
                Fault.pin_fault c ~node:i ~pin ~stuck:(V3.equal ctrl V3.Zero)
              in
              if (not (Fault.equal sub dom)) && FH.mem index sub then
                pairs := (dom, sub) :: !pairs)
            fan
      | None -> ())
    | _ -> ()
  done;
  List.rev !pairs

(* ------------------------------------------------------------------ *)
(* Analysis driver                                                     *)
(* ------------------------------------------------------------------ *)

let analyze ?(learn = true) (view : View.t) ~(faults : Fault.t array) =
  let t0 = Sys.time () in
  let c = view.View.circuit in
  let n = Circuit.num_nets c in
  let p, base_reason = make_prop view in
  let base = p.base in
  let def_binary = compute_def_binary view base in
  let obs_src = compute_obs_src view in
  let nf = Array.length faults in
  let index = FH.create (2 * nf) in
  Array.iteri (fun i f -> FH.replace index f i) faults;
  let impossible = Array.make (2 * n) false in
  for i = 0 to n - 1 do
    if V3.is_binary base.(i) then
      impossible.(lit ~net:i ~value:(V3.equal base.(i) V3.Zero)) <- true
    else if p.uncontrollable.(i) then begin
      impossible.(lit ~net:i ~value:false) <- true;
      impossible.(lit ~net:i ~value:true) <- true
    end
  done;
  let seen = Array.make n false in
  let proofs = Array.make nf None in
  let n_proven = ref 0 in
  let prove i pr =
    if proofs.(i) = None then begin
      proofs.(i) <- Some pr;
      incr n_proven
    end
  in
  (* Cone membership ([Fault.cone]'s nets: everything reachable from the
     fault's seed through the fanout), walked once per seed and cached
     as a bitset: a near-whole-netlist cone costs n/8 bytes instead of a
     sorted array of n ints. *)
  let stack = Array.make n 0 in
  let walk seed =
    let bits = Bytes.make ((n + 7) / 8) '\000' in
    let top = ref 0 in
    let visit w =
      if not (bit_mem bits w) then begin
        bit_add bits w;
        stack.(!top) <- w;
        incr top
      end
    in
    visit seed;
    while !top > 0 do
      decr top;
      Array.iter visit c.Circuit.fanout.(stack.(!top))
    done;
    bits
  in
  let cone_cache = Hashtbl.create 64 in
  let with_cone f k =
    let seed = Fault.seed f in
    let bits =
      match Hashtbl.find_opt cone_cache seed with
      | Some bits -> bits
      | None ->
        let bits = walk seed in
        Hashtbl.replace cone_cache seed bits;
        bits
    in
    k (bit_mem bits)
  in
  (* --- pass 1: base constants alone -------------------------------- *)
  Array.iteri
    (fun i f ->
      let s = Fault.site_net c f in
      if V3.equal base.(s) (stuck_value f) then prove i Unexcitable
      else
        with_cone f (fun in_cone ->
            match blocked_cut p obs_src in_cone seen (entry_of p in_cone f) with
            | Some cut -> prove i (Unobservable cut)
            | None -> ()))
    faults;
  (* --- pass 2: one propagation per literal -------------------------- *)
  let succ = Array.make (2 * n) [] in
  let learned_total = ref 0 in
  (* Pass 2 proves nothing, so the faults open for FIRE are fixed here. *)
  let open_faults =
    List.filter (fun i -> proofs.(i) = None) (List.init nf Fun.id)
  in
  (* The open faults blocked under the current net's 0-branch, in
     ascending order; only they can become FIRE candidates. *)
  let blocked0 = ref [] in
  let fire_candidates = ref [] in
  (* cheap, cone-unaware "is detection blocked" filter under the current
     branch assignment *)
  let cheap = Array.map (cheap_entry c) faults in
  let obs = obs_support p obs_src in
  let obs_ok w = obs.cnt.(w) > 0 in
  let cheap_blocked i =
    let f = faults.(i) in
    V3.equal p.work.(Fault.site_net c f) (stuck_value f)
    ||
    match cheap.(i) with
    | Cheap_obs -> false
    | Cheap_net e -> not (obs_ok e)
    | Cheap_pin { node; pin; fan; ctrl } ->
      let blocked = ref false in
      for q = 0 to Array.length fan - 1 do
        if q <> pin && V3.equal p.work.(fan.(q)) ctrl then blocked := true
      done;
      !blocked || not (obs_ok node)
  in
  for m = 0 to n - 1 do
    if (not (V3.is_binary base.(m))) && not p.uncontrollable.(m) then begin
      let branch value =
        let mark = p.trail in
        let applied = try_assume p [ (m, V3.of_bool value, Assumed) ] in
        let applied =
          applied
          && ((not learn)
             ||
             match recursive_learn p with
             | k ->
               learned_total := !learned_total + k;
               true
             | exception Contradiction -> false)
        in
        let l = lit ~net:m ~value in
        if not applied then begin
          impossible.(l) <- true;
          undo_to p mark;
          false
        end
        else begin
          (* record the closure as CSR successors + contrapositives *)
          let rec edges tl =
            if tl != mark then
              match tl with
              | (net, v', _) :: rest ->
                if net <> m then begin
                  let l' = lit ~net ~value:(V3.equal v' V3.One) in
                  succ.(l) <- l' :: succ.(l);
                  (* contraposition of a ternary implication only holds
                     when the branch net cannot settle at X in a completed
                     test: [m = b] forcing [x] excludes [m = b] under
                     [not x], which pins [m] only if [m] must be binary *)
                  if def_binary.(m) then
                    succ.(l' lxor 1) <- (l lxor 1) :: succ.(l' lxor 1)
                end;
                edges rest
              | [] -> assert false
          in
          edges p.trail;
          (* FIRE filter under this branch (state still applied) *)
          if def_binary.(m) && !n_proven < nf then begin
            let tested = if value then !blocked0 else open_faults in
            if tested <> [] then begin
              obs_retract p obs;
              let blocked = List.filter cheap_blocked tested in
              obs_restore obs;
              if not value then blocked0 := blocked
              else if blocked <> [] then
                fire_candidates := (m, blocked) :: !fire_candidates
            end
          end;
          undo_to p mark;
          true
        end
      in
      blocked0 := [];
      let ok0 = branch false in
      (* a conflicting 0-branch blocks every fault vacuously: candidates
         are whatever the 1-branch blocks *)
      if (not ok0) && def_binary.(m) then blocked0 := open_faults;
      ignore (branch true : bool)
    end
  done;
  (* A literal whose accumulated implication set (its own closure plus
     contrapositives contributed by other branches) contains both values
     of some net is itself impossible: every edge is a theorem about
     completed tests (the contrapositives are def-binary-gated above), so
     the literal implies a contradiction. One sweep after the graph is
     complete keeps the published graph conflict-free on its possible
     literals. For each such literal the sweep also tries to extract a
     {!refutation} that {!check} can replay from scratch; composed edges
     need not re-derive by one deduction, which is why the provers below
     treat the pre-sweep snapshot [impossible_direct] and the verified
     [refutations] separately. *)
  let impossible_direct = Array.copy impossible in
  let refutations = Hashtbl.create 16 in
  (* assuming [m = mv] either conflicts or forces the negation of [l] *)
  let derives_not l m mv =
    let mark = p.trail in
    let ok = deduce p [ (m, mv, Assumed) ] in
    let r =
      (not ok) || V3.equal p.work.(l / 2) (V3.of_bool (l land 1 = 0))
    in
    undo_to p mark;
    r
  in
  let refute l candidates =
    let net = l / 2 in
    let v = V3.of_bool (l land 1 = 1) in
    let mark = p.trail in
    let ok = deduce p [ (net, v, Assumed) ] in
    if not ok then begin
      undo_to p mark;
      Some Direct
    end
    else begin
      (* the literal's own deduction closure, for the [Via] first leg *)
      let own = Hashtbl.create 32 in
      let rec walk tl =
        if tl != mark then
          match tl with
          | (m, mv, _) :: rest ->
            if m <> net then Hashtbl.replace own m mv;
            walk rest
          | [] -> assert false
      in
      walk p.trail;
      undo_to p mark;
      let rec pick = function
        | [] -> None
        | m :: rest -> (
          match Hashtbl.find_opt own m with
          | Some mv when derives_not l m mv -> Some (Via { via = m; value = mv })
          | Some _ -> pick rest
          | None ->
            if
              def_binary.(m)
              && derives_not l m V3.Zero
              && derives_not l m V3.One
            then Some (Cases m)
            else pick rest)
      in
      pick candidates
    end
  in
  for l = 0 to (2 * n) - 1 do
    if not impossible.(l) then begin
      let rec conflict_nets acc = function
        | a :: (b :: _ as rest) ->
          conflict_nets (if a lxor 1 = b then (a / 2) :: acc else acc) rest
        | [ _ ] | [] -> acc
      in
      match conflict_nets [] (List.sort_uniq Int.compare succ.(l)) with
      | [] -> ()
      | candidates -> (
        impossible.(l) <- true;
        match refute l candidates with
        | Some r -> Hashtbl.replace refutations l r
        | None -> ())
    end
  done;
  (* --- pass 3: verify FIRE candidates soundly ----------------------- *)
  (* Each branch of [m] is assumed once for all of [m]'s candidates:
     [evidence] gives, in order, the faults of [is] the branch excludes. *)
  let evidence m value is =
    let mark = p.trail in
    let ev =
      if not (try_assume p [ (m, V3.of_bool value, Assumed) ]) then
        List.map (fun i -> (i, Conflict)) is
      else
        List.filter_map
          (fun i ->
            let f = faults.(i) in
            let s = Fault.site_net c f in
            if V3.equal p.work.(s) (stuck_value f) then
              Some (i, Excitation (stuck_value f))
            else
              with_cone f (fun in_cone ->
                  match
                    blocked_cut p obs_src in_cone seen (entry_of p in_cone f)
                  with
                  | Some cut -> Some (i, Cut cut)
                  | None -> None))
          is
    in
    undo_to p mark;
    ev
  in
  List.iter
    (fun (m, candidates) ->
      match List.filter (fun i -> proofs.(i) = None) candidates with
      | [] -> ()
      | open_ ->
        let ev0 = evidence m false open_ in
        let ev1 = evidence m true (List.map fst ev0) in
        (* [ev1] is a subsequence of [ev0] *)
        let rec fire ev0 ev1 =
          match (ev0, ev1) with
          | (i, if0) :: r0, (j, if1) :: r1 when i = j ->
            prove i (Fire { m; if0; if1 });
            fire r0 r1
          | _ :: r0, _ -> fire r0 ev1
          | [], _ -> ()
        in
        fire ev0 ev1)
    (List.rev !fire_candidates);
  (* --- pass 4: detection-necessary literals ------------------------- *)
  (* Every test must set the site net opposite to the stuck value, and a
     branch fault's effect passes its own gate only when every other pin
     sits at the non-controlling value (any side at the controlling value
     forces the output in both machines, and an X side leaves the faulty
     output X — never a definite detection). A refuted literal among
     these requirements closes the fault. *)
  let refutation_of l =
    if impossible_direct.(l) then begin
      (* replay so the shipped proof stands on its own even when the
         pass-2 conflict came out of learning *)
      let mark = p.trail in
      let ok = deduce p [ (l / 2, V3.of_bool (l land 1 = 1), Assumed) ] in
      undo_to p mark;
      if ok then None else Some Direct
    end
    else if impossible.(l) then Hashtbl.find_opt refutations l
    else None
  in
  Array.iteri
    (fun i f ->
      if proofs.(i) = None then begin
        let s = Fault.site_net c f in
        let need = V3.bnot (stuck_value f) in
        (match refutation_of (lit ~net:s ~value:(V3.equal need V3.One)) with
        | Some Direct -> prove i Unexcitable
        | Some refutation ->
          prove i (Requires { pin = None; net = s; value = need; refutation })
        | None -> ());
        if proofs.(i) = None then
          match f.Fault.site with
          | Fault.Branch { node; pin } -> (
            match Circuit.node c node with
            | Circuit.Gate (g, fan) -> (
              match Gate.controlling g with
              | Some ctrl ->
                let nctrl = V3.bnot ctrl in
                Array.iteri
                  (fun q k ->
                    if proofs.(i) = None && q <> pin then
                      match
                        refutation_of
                          (lit ~net:k ~value:(V3.equal nctrl V3.One))
                      with
                      | Some refutation ->
                        prove i
                          (Requires
                             { pin = Some q; net = k; value = nctrl; refutation })
                      | None -> ())
                  fan
              | None -> ())
            | _ -> ())
          | Fault.Stem _ -> ()
      end)
    faults;
  (* --- pass 5: dominance -------------------------------------------- *)
  let dominance = dominance_pairs c index in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (dom, sub) ->
        let di = FH.find index dom and si = FH.find index sub in
        if proofs.(di) <> None && proofs.(si) = None then begin
          prove si (Dominated dom);
          changed := true
        end)
      dominance
  done;
  (* --- results ------------------------------------------------------ *)
  let untestable = ref [] in
  for i = nf - 1 downto 0 do
    match proofs.(i) with
    | Some proof -> untestable := { fault = faults.(i); proof } :: !untestable
    | None -> ()
  done;
  let untestable = !untestable in
  let off = Array.make ((2 * n) + 1) 0 in
  let lists = Array.map (fun l -> List.sort_uniq Int.compare l) succ in
  for l = 0 to (2 * n) - 1 do
    off.(l + 1) <- off.(l) + List.length lists.(l)
  done;
  let dst = Array.make (max off.(2 * n) 1) 0 in
  for l = 0 to (2 * n) - 1 do
    List.iteri (fun k d -> dst.(off.(l) + k) <- d) lists.(l)
  done;
  let n_constants =
    Array.fold_left
      (fun acc r ->
        match r with Some (Forward _ | Backward _) -> acc + 1 | _ -> acc)
      0 base_reason
  in
  let n_impossible =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 impossible
  in
  {
    view;
    base;
    base_reason;
    def_binary;
    impossible;
    graph = { off; dst };
    untestable;
    dominance;
    stats =
      {
        nets = n;
        targets = nf;
        constants = n_constants;
        implications = off.(2 * n);
        learned = !learned_total;
        impossible = n_impossible;
        untestable = List.length untestable;
        dominance_edges = List.length dominance;
        seconds = Sys.time () -. t0;
      };
  }

let impossible t net v =
  match v with
  | V3.X -> false
  | v -> t.impossible.(lit ~net ~value:(V3.equal v V3.One))

let implied t ~net ~value =
  let l = lit ~net ~value in
  let res = ref [] in
  for k = t.graph.off.(l + 1) - 1 downto t.graph.off.(l) do
    let d = t.graph.dst.(k) in
    res := (d / 2, d land 1 = 1) :: !res
  done;
  !res

(* ------------------------------------------------------------------ *)
(* Proof checking                                                      *)
(* ------------------------------------------------------------------ *)

let check t (u : untestable) =
  let view = t.view in
  let c = view.View.circuit in
  let p, _ = make_prop view in
  let obs_src = compute_obs_src view in
  let n = Circuit.num_nets c in
  let seen = Array.make n false in
  let f = u.fault in
  let s = Fault.site_net c f in
  let sv = stuck_value f in
  let in_cone_of f =
    let cone = Fault.cone c f in
    let mem = Array.make n false in
    Array.iter (fun w -> mem.(w) <- true) cone;
    fun w -> mem.(w)
  in
  let conflicts assumptions =
    let mark = p.trail in
    let ok = deduce p assumptions in
    undo_to p mark;
    not ok
  in
  let valid_cut in_cone cut =
    List.for_all
      (fun b ->
        match Circuit.node c b.node with
        | Circuit.Gate (g, fan) ->
          b.pin >= 0
          && b.pin < Array.length fan
          && fan.(b.pin) = b.side
          && Gate.controlling g = Some b.ctrl
          && V3.equal p.work.(b.side) b.ctrl
          && not (in_cone b.side)
        | _ -> false)
      cut
  in
  let blocked_now in_cone =
    blocked_cut p obs_src in_cone seen (entry_of p in_cone f) <> None
  in
  match u.proof with
  | Unexcitable ->
    V3.equal p.base.(s) sv || conflicts [ (s, V3.bnot sv, Assumed) ]
  | Unobservable cut ->
    let in_cone = in_cone_of f in
    valid_cut in_cone cut && blocked_now in_cone
  | Fire { m; if0; if1 } ->
    t.def_binary.(m)
    && (not (V3.is_binary p.base.(m)))
    &&
    let branch value ev =
      let mark = p.trail in
      let applied = try_assume p [ (m, V3.of_bool value, Assumed) ] in
      let ok =
        match ev with
        | Conflict -> not applied
        | Excitation v -> applied && V3.equal v sv && V3.equal p.work.(s) sv
        | Cut cut ->
          applied
          &&
          let in_cone = in_cone_of f in
          valid_cut in_cone cut && blocked_now in_cone
      in
      undo_to p mark;
      ok
    in
    branch false if0 && branch true if1
  | Requires { pin; net; value; refutation } ->
    (* the literal really is necessary for detection *)
    let requirement_ok =
      V3.is_binary value
      &&
      match pin with
      | None -> net = s && V3.equal value (V3.bnot sv)
      | Some q -> (
        match f.Fault.site with
        | Fault.Branch { node; pin = fp } when q <> fp -> (
          match Circuit.node c node with
          | Circuit.Gate (g, fan) -> (
            match Gate.controlling g with
            | Some ctrl ->
              q >= 0
              && q < Array.length fan
              && fan.(q) = net
              && V3.equal value (V3.bnot ctrl)
            | None -> false)
          | _ -> false)
        | _ -> false)
    in
    (* ... and really is refuted: re-derive each deduction leg *)
    let derives_neg m mv =
      let mark = p.trail in
      let ok = deduce p [ (m, mv, Assumed) ] in
      let r = (not ok) || V3.equal p.work.(net) (V3.bnot value) in
      undo_to p mark;
      r
    in
    requirement_ok
    && (match refutation with
       | Direct -> conflicts [ (net, value, Assumed) ]
       | Via { via; value = vv } ->
         let fwd =
           let mark = p.trail in
           let ok = deduce p [ (net, value, Assumed) ] in
           let r = (not ok) || V3.equal p.work.(via) vv in
           undo_to p mark;
           r
         in
         V3.is_binary vv && fwd && derives_neg via vv
       | Cases on ->
         t.def_binary.(on) && derives_neg on V3.Zero && derives_neg on V3.One)
  | Dominated dom -> (
    (* the dominator must be a proven output fault whose gate reads the
       dominated fault's pin at the matching polarities *)
    match dom.Fault.site with
    | Fault.Stem j -> (
      match Circuit.node c j with
      | Circuit.Gate (g, fan) -> (
        match Gate.controlling g with
        | Some ctrl ->
          dom.Fault.stuck = V3.equal (Gate.controlled_output g) V3.Zero
          && Array.exists
               (fun pin ->
                 Fault.equal f
                   (Fault.pin_fault c ~node:j ~pin
                      ~stuck:(V3.equal ctrl V3.Zero)))
               (Array.init (Array.length fan) (fun i -> i))
          && List.exists (fun u' -> Fault.equal u'.fault dom) t.untestable
        | None -> false)
      | _ -> false)
    | Fault.Branch _ -> false)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_net c n = J.String (Circuit.net_name c n)
let json_v3 v = J.String (String.make 1 (V3.to_char v))

let reason_to_json c = function
  | Tied -> J.Obj [ ("kind", J.String "tied") ]
  | Forward node ->
    J.Obj [ ("kind", J.String "forward"); ("node", json_net c node) ]
  | Backward { node; pin } ->
    J.Obj
      [
        ("kind", J.String "backward");
        ("node", json_net c node);
        ("pin", J.Int pin);
      ]
  | Assumed -> J.Obj [ ("kind", J.String "assumed") ]
  | Learned node ->
    J.Obj [ ("kind", J.String "learned"); ("node", json_net c node) ]

let blocker_to_json c b =
  J.Obj
    [
      ("node", json_net c b.node);
      ("pin", J.Int b.pin);
      ("side", json_net c b.side);
      ("ctrl", json_v3 b.ctrl);
    ]

let evidence_to_json c = function
  | Conflict -> J.Obj [ ("kind", J.String "conflict") ]
  | Excitation v ->
    J.Obj [ ("kind", J.String "excitation"); ("value", json_v3 v) ]
  | Cut cut ->
    J.Obj
      [
        ("kind", J.String "cut");
        ("blocked", J.List (List.map (blocker_to_json c) cut));
      ]

let refutation_to_json c = function
  | Direct -> J.Obj [ ("kind", J.String "direct") ]
  | Via { via; value } ->
    J.Obj
      [
        ("kind", J.String "via");
        ("net", json_net c via);
        ("value", json_v3 value);
      ]
  | Cases on -> J.Obj [ ("kind", J.String "cases"); ("net", json_net c on) ]

let proof_to_json c = function
  | Unexcitable -> J.Obj [ ("kind", J.String "unexcitable") ]
  | Unobservable cut ->
    J.Obj
      [
        ("kind", J.String "unobservable");
        ("blocked", J.List (List.map (blocker_to_json c) cut));
      ]
  | Fire { m; if0; if1 } ->
    J.Obj
      [
        ("kind", J.String "fire");
        ("net", json_net c m);
        ("if0", evidence_to_json c if0);
        ("if1", evidence_to_json c if1);
      ]
  | Requires { pin; net; value; refutation } ->
    J.Obj
      ((("kind", J.String "requires")
       :: (match pin with None -> [] | Some q -> [ ("pin", J.Int q) ]))
      @ [
          ("net", json_net c net);
          ("value", json_v3 value);
          ("refutation", refutation_to_json c refutation);
        ])
  | Dominated dom ->
    J.Obj
      [ ("kind", J.String "dominated"); ("by", J.String (Fault.to_string c dom)) ]

let to_json t =
  let c = t.view.View.circuit in
  let n = t.stats.nets in
  let constants = ref [] in
  for i = n - 1 downto 0 do
    match t.base_reason.(i) with
    | Some ((Forward _ | Backward _) as r) ->
      constants :=
        J.Obj
          [
            ("net", json_net c i);
            ("value", json_v3 t.base.(i));
            ("reason", reason_to_json c r);
          ]
        :: !constants
    | _ -> ()
  done;
  J.Obj
    [
      ("version", J.Int 1);
      ("circuit", J.String c.Circuit.name);
      ("nets", J.Int n);
      ("targets", J.Int t.stats.targets);
      ("constants", J.List !constants);
      ( "stats",
        J.Obj
          [
            ("constants", J.Int t.stats.constants);
            ("implications", J.Int t.stats.implications);
            ("learned", J.Int t.stats.learned);
            ("impossible", J.Int t.stats.impossible);
            ("untestable", J.Int t.stats.untestable);
            ("dominance_edges", J.Int t.stats.dominance_edges);
            ("seconds", J.Float t.stats.seconds);
          ] );
      ( "untestable",
        J.List
          (List.map
             (fun u ->
               J.Obj
                 [
                   ("fault", J.String (Fault.to_string c u.fault));
                   ("site", json_net c (Fault.site_net c u.fault));
                   ("stuck", J.Int (if u.fault.Fault.stuck then 1 else 0));
                   ("proof", proof_to_json c u.proof);
                 ])
             t.untestable) );
      ( "dominance",
        J.List
          (List.map
             (fun (dom, sub) ->
               J.Obj
                 [
                   ("dominator", J.String (Fault.to_string c dom));
                   ("dominated", J.String (Fault.to_string c sub));
                 ])
             t.dominance) );
    ]
