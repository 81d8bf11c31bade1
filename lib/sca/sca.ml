open Fst_logic
open Fst_netlist
open Fst_fault
module J = Fst_obs.Json
module Clock = Fst_exec.Clock

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

(* Shared mutable propagation state, allocation-free per implication.
   [work] refines [base] between [undo_to] calls. The trail holds every
   net assigned after the base fixpoint, oldest first, in
   [trail.(0 .. top - 1)]; a mark is a trail length. Each net appears at
   most once on the trail (values only go X -> binary), which is what
   makes [undo_to] restoring base values correct, and bounds the trail
   and the FIFO [queue] by the net count. An assignment's reason is two
   ints per net: [why_pin] is a pin for [Backward], else one of the
   negative codes below, and [why_node] the gate. *)
type prop = {
  c : Circuit.t;
  base : V3.t array;
  work : V3.t array;
  uncontrollable : bool array;
      (* source reads as permanent X: a binary value there is absurd *)
  trail : int array;
  mutable top : int;
  why_node : int array;
  why_pin : int array;
  queue : int array;  (* nets to settle: [queue.(head .. tail - 1)] *)
  mutable head : int;
  mutable tail : int;
  pos : int array;  (* topological position of each net *)
  learn_base : int array;
      (* ascending topological positions of the gates the base leaves
         unjustified (at their controlled output, no fanin at the
         controlling value): with the gates on the trail, the only ones
         {!recursive_learn} can pick *)
  stamp : int array;  (* per net: branch-intersection generation *)
  stamp_v : V3.t array;  (* per net: its value in the first branch *)
  mutable gen : int;
  fixes : int array;  (* the last consistent branch, oldest first *)
}

let why_forward = -1
let why_tied = -2
let why_assumed = -3
let why_learned = -4

let assign p n v node pin =
  if V3.is_binary v then begin
    let cur = p.work.(n) in
    if V3.equal cur v then ()
    else if V3.is_binary cur || p.uncontrollable.(n) then raise Contradiction
    else begin
      p.work.(n) <- v;
      p.trail.(p.top) <- n;
      p.top <- p.top + 1;
      p.why_node.(n) <- node;
      p.why_pin.(n) <- pin;
      p.queue.(p.tail) <- n;
      p.tail <- p.tail + 1
    end
  end

(* [Gate.eval] in place over the values [w] of [fan], except that pin
   [skip] reads [sv]. *)
let eval_gate w g fan skip sv =
  let zero = ref false and one = ref false and x = ref false
  and odd = ref false in
  for k = 0 to Array.length fan - 1 do
    match if k = skip then sv else w.(fan.(k)) with
    | V3.Zero -> zero := true
    | V3.One ->
      one := true;
      odd := not !odd
    | V3.X -> x := true
  done;
  Gate.of_inputs g ~zero:!zero ~one:!one ~x:!x ~odd:!odd

(* Forward: the gate's output follows from its fanins (a conflict with an
   already-known output surfaces inside [assign]). *)
let forward p j g fan =
  assign p j (eval_gate p.work g fan (-1) V3.X) j why_forward

(* Backward: the gate's output is known; justify what must hold at its
   fanins. Unit-solves the last unknown input for every gate type, and
   forces all inputs non-controlling when the output is at the
   non-controlled value. *)
let backward p j g fan =
  let v = p.work.(j) in
  if V3.is_binary v then begin
    let unknown = ref (-1) and n_unknown = ref 0 in
    for q = 0 to Array.length fan - 1 do
      if not (V3.is_binary p.work.(fan.(q))) then begin
        unknown := q;
        incr n_unknown
      end
    done;
    if !n_unknown = 0 then begin
      if not (V3.equal (eval_gate p.work g fan (-1) V3.X) v) then
        raise Contradiction
    end
    else if !n_unknown = 1 then begin
      let q = !unknown in
      let ok0 = V3.equal (eval_gate p.work g fan q V3.Zero) v in
      let ok1 = V3.equal (eval_gate p.work g fan q V3.One) v in
      if ok0 && not ok1 then assign p fan.(q) V3.Zero j q
      else if ok1 && not ok0 then assign p fan.(q) V3.One j q
      else if not (ok0 || ok1) then raise Contradiction
    end
    else
      match Gate.controlling g with
      | Some ctrl when V3.equal v (V3.bnot (Gate.controlled_output g)) ->
        for q = 0 to Array.length fan - 1 do
          let k = fan.(q) in
          if not (V3.is_binary p.work.(k)) then assign p k (V3.bnot ctrl) j q
        done
      | _ -> ()
  end

let settle p =
  let nodes = p.c.Circuit.nodes in
  while p.head < p.tail do
    let n = p.queue.(p.head) in
    p.head <- p.head + 1;
    (match nodes.(n) with
    | Circuit.Gate (g, fan) -> backward p n g fan
    | _ -> ());
    let fo = p.c.Circuit.fanout.(n) in
    for k = 0 to Array.length fo - 1 do
      let j = fo.(k) in
      match nodes.(j) with
      | Circuit.Gate (g, fan) ->
        forward p j g fan;
        backward p j g fan
      | _ -> ()
    done
  done;
  p.head <- 0;
  p.tail <- 0

(* Undo trail entries down to [mark], restoring base values. *)
let undo_to p mark =
  for k = mark to p.top - 1 do
    let n = p.trail.(k) in
    p.work.(n) <- p.base.(n)
  done;
  p.top <- mark;
  p.head <- 0;
  p.tail <- 0

(* Assume [net = v] on top of the current state; on conflict the partial
   trail is left for the caller to undo. *)
let assume p net v =
  match
    assign p net v net why_assumed;
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
  let p =
    {
      c;
      base = Array.make n V3.X;
      work = Array.make n V3.X;
      uncontrollable;
      trail = Array.make n 0;
      top = 0;
      why_node = Array.make n 0;
      why_pin = Array.make n 0;
      queue = Array.make n 0;
      head = 0;
      tail = 0;
      pos = Array.make n (-1);
      learn_base = [||];
      stamp = Array.make n 0;
      stamp_v = Array.make n V3.X;
      gen = 0;
      fixes = Array.make n 0;
    }
  in
  (* cannot conflict: values are only derived forward from the (single
     driver per net) seeds *)
  for i = n - 1 downto 0 do
    match Circuit.node c i with
    | Circuit.Const v ->
      if V3.is_binary v then assign p i v i why_tied
      else uncontrollable.(i) <- true
    | Circuit.Input | Circuit.Dff _ -> (
      match view.View.fixed.(i) with
      | Some v when V3.is_binary v -> assign p i v i why_tied
      | Some _ -> uncontrollable.(i) <- true
      | None -> if not view.View.free.(i) then uncontrollable.(i) <- true)
    | Circuit.Gate _ -> ()
  done;
  settle p;
  let reasons = Array.make n None in
  for k = 0 to p.top - 1 do
    let i = p.trail.(k) in
    let node = p.why_node.(i) and pin = p.why_pin.(i) in
    reasons.(i) <-
      Some
        (if pin >= 0 then Backward { node; pin }
         else if pin = why_forward then Forward node
         else Tied)
  done;
  (* promote the fixpoint to the permanent base *)
  Array.blit p.work 0 p.base 0 n;
  p.top <- 0;
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
  ({ p with learn_base = Array.of_list !learn_base }, reasons)

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

type entry = Net of int | Blocked of blocker | Obs

(* The first pin of gate [j] other than [skip] whose side net is forced to
   the controlling value and lies outside the fault's cone: it blocks
   every fault effect entering [j] (an in-cone side could carry the
   effect itself and re-open the path). *)
let rec blocker_from p in_cone j fan skip ctrl q =
  if q = Array.length fan then None
  else
    let k = fan.(q) in
    if q <> skip && V3.equal p.work.(k) ctrl && not (in_cone k) then
      Some { node = j; pin = q; side = k; ctrl }
    else blocker_from p in_cone j fan skip ctrl (q + 1)

let blocker_of p in_cone j g fan skip =
  match Gate.controlling g with
  | None -> None
  | Some ctrl -> blocker_from p in_cone j fan skip ctrl 0

(* Where the fault effect enters the net graph under the current
   assignment. A branch fault must first pass its own gate; [Obs] is the
   conservative "might be directly observed" answer. *)
let entry_of p in_cone (f : Fault.t) =
  match f.Fault.site with
  | Fault.Stem s -> Net s
  | Fault.Branch { node; pin } -> (
    match Circuit.node p.c node with
    | Circuit.Gate (g, fan) -> (
      match blocker_of p in_cone node g fan pin with
      | Some b -> Blocked b
      | None -> Net node)
    | Circuit.Dff _ | Circuit.Input | Circuit.Const _ -> Obs)

(* Scratch for {!blocked_cut}: a net is explored in the current search
   when its [seen] stamp equals [search]; [stack] holds the nets left to
   expand. *)
type cut_scratch = { seen : int array; stack : int array; mutable search : int }

let cut_scratch n =
  { seen = Array.make n 0; stack = Array.make n 0; search = 0 }

let by_pin a b =
  let d = Int.compare a.node b.node in
  if d <> 0 then d else Int.compare a.pin b.pin

(* Sound, cone-aware cut search: explore every net the effect could
   reach; collect the blocked gates on the frontier. [None] when an
   observation point is reachable. Which nets are explored and which
   gates block does not depend on the order of exploration. *)
let blocked_cut p obs_src in_cone s entry =
  match entry with
  | Obs -> None
  | Blocked b -> Some [ b ]
  | Net e ->
    s.search <- s.search + 1;
    let search = s.search in
    let cut = ref [] and top = ref 1 and observable = ref false in
    s.seen.(e) <- search;
    s.stack.(0) <- e;
    while (not !observable) && !top > 0 do
      decr top;
      let w = s.stack.(!top) in
      if obs_src.(w) then observable := true
      else
        let fo = p.c.Circuit.fanout.(w) in
        for k = 0 to Array.length fo - 1 do
          let j = fo.(k) in
          match Circuit.node p.c j with
          | Circuit.Gate (g, fan) when s.seen.(j) <> search -> (
            match blocker_of p in_cone j g fan (-1) with
            | None ->
              s.seen.(j) <- search;
              s.stack.(!top) <- j;
              incr top
            | Some b -> cut := b :: !cut)
          | _ -> ()
        done
    done;
    if !observable then None else Some (List.sort_uniq by_pin !cut)

(* Fault-independent observability marker: an effect at net [w] might
   reach an observation point, ignoring cones, when [w] drives an
   unblocked pin (no other pin forced to the controlling value) of a
   gate that is an observation source or itself marked. Only used to
   filter FIRE candidates; the sound per-fault check is [blocked_cut].

   Kept as support counts: [cnt.(w)] is the number of such pins [w]
   drives, so [w] is marked when it is positive. The base assignment's
   counts are computed once. A branch only forces more pins, so it only
   takes support away: [obs_retract] walks back from the gates next to
   the trail level by level, from the highest, through per-level buckets
   of pending gates, and [obs_restore] returns the counts to the base
   from the [retracted] stack. *)
type obs_support = {
  obs_src : bool array;
  base_cnt : int array;
  cnt : int array;
  retracted : int array;  (* one entry per pin, so never overflows *)
  mutable n_retracted : int;
  bucket : int array;  (* per level: the first pending gate, or -1 *)
  next : int array;  (* per net: the next pending gate of its level *)
  pending : Bytes.t;  (* per net: in a bucket *)
  mutable top_level : int;
}

(* Which pins of [fan] are unblocked under [values]: -1 all of them (no
   pin is forced to [g]'s controlling value), [q] only pin [q] (the one
   forced pin), -2 none. *)
let unblocked_pins (values : V3.t array) g fan =
  match Gate.controlling g with
  | None -> -1
  | Some ctrl ->
    let code = ref (-1) in
    for q = 0 to Array.length fan - 1 do
      if V3.equal values.(fan.(q)) ctrl then
        code := if !code = -1 then q else -2
    done;
    !code

let unblocked code q = code = -1 || code = q

let obs_support p obs_src =
  let c = p.c in
  let n = Circuit.num_nets c in
  let cnt = Array.make n 0 in
  let topo = c.Circuit.topo in
  for k = Array.length topo - 1 downto 0 do
    let i = topo.(k) in
    match Circuit.node c i with
    | Circuit.Gate (g, fan) when cnt.(i) > 0 || obs_src.(i) ->
      let code = unblocked_pins p.base g fan in
      Array.iteri
        (fun q w -> if unblocked code q then cnt.(w) <- cnt.(w) + 1)
        fan
    | _ -> ()
  done;
  {
    obs_src;
    base_cnt = Array.copy cnt;
    cnt;
    retracted =
      Array.make
        (Array.fold_left (fun a fo -> a + Array.length fo) 0 c.Circuit.fanout)
        0;
    n_retracted = 0;
    bucket = Array.make (1 + Array.fold_left Int.max 0 c.Circuit.level) (-1);
    next = Array.make n (-1);
    pending = Bytes.make n '\000';
    top_level = 0;
  }

(* Each gate is settled once: support only flows from a gate to its
   fanins, which sit at lower levels. *)
let obs_retract p o =
  let c = p.c in
  let push w =
    match Circuit.node c w with
    | Circuit.Gate _ when Bytes.get o.pending w = '\000' ->
      let l = c.Circuit.level.(w) in
      Bytes.set o.pending w '\001';
      o.next.(w) <- o.bucket.(l);
      o.bucket.(l) <- w;
      o.top_level <- max o.top_level l
    | _ -> ()
  in
  for t = 0 to p.top - 1 do
    Array.iter push c.Circuit.fanout.(p.trail.(t))
  done;
  for l = o.top_level downto 0 do
    while o.bucket.(l) >= 0 do
      let i = o.bucket.(l) in
      o.bucket.(l) <- o.next.(i);
      Bytes.set o.pending i '\000';
      match Circuit.node c i with
      | Circuit.Gate (g, fan) when o.base_cnt.(i) > 0 || o.obs_src.(i) ->
        let is = o.cnt.(i) > 0 || o.obs_src.(i) in
        let code0 = unblocked_pins p.base g fan
        and code = unblocked_pins p.work g fan in
        for q = 0 to Array.length fan - 1 do
          if unblocked code0 q && not (is && unblocked code q) then begin
            let w = fan.(q) in
            o.cnt.(w) <- o.cnt.(w) - 1;
            o.retracted.(o.n_retracted) <- w;
            o.n_retracted <- o.n_retracted + 1;
            if o.cnt.(w) = 0 then push w
          end
        done
      | _ -> ()
    done
  done;
  o.top_level <- 0

let obs_restore o =
  for k = 0 to o.n_retracted - 1 do
    let w = o.retracted.(k) in
    o.cnt.(w) <- o.cnt.(w) + 1
  done;
  o.n_retracted <- 0

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

(* The fault's static fanout cone as a bitset: every net reachable from
   the fault's seed through the fanout. A near-whole-netlist cone costs
   n/8 bytes instead of a sorted array of n ints. [stack] is scratch of
   [num_nets] ints. *)
let cone_bits (c : Circuit.t) ~stack seed =
  let bits = Bytes.make ((Circuit.num_nets c + 7) / 8) '\000' in
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

let stuck_value (f : Fault.t) = V3.of_bool f.Fault.stuck
let max_learn_gates = 2

(* Gate [j] is unjustified: its output at the controlled value, no input
   at the controlling value, >= 2 unknown inputs. *)
let unjustified p j =
  match Circuit.node p.c j with
  | Circuit.Gate (g, fan) -> (
    match Gate.controlling g with
    | Some ctrl when V3.equal p.work.(j) (Gate.controlled_output g) ->
      let unknown = ref 0 and forced = ref false in
      for q = 0 to Array.length fan - 1 do
        let v = p.work.(fan.(q)) in
        if V3.equal v ctrl then forced := true
        else if not (V3.is_binary v) then incr unknown
      done;
      (not !forced) && !unknown >= 2
    | _ -> false)
  | _ -> false

(* The lowest topological position past [after] of an unjustified gate,
   or [max_int]. An unjustified gate sits at a binary value, so only the
   base candidates and the gates assigned since the base can qualify. *)
let next_unjustified p after =
  let topo = p.c.Circuit.topo in
  let best = ref max_int in
  for t = 0 to p.top - 1 do
    let k = p.pos.(p.trail.(t)) in
    if k > after && k < !best && unjustified p topo.(k) then best := k
  done;
  let lb = p.learn_base in
  let i = ref 0 in
  while !i < Array.length lb && lb.(!i) < !best do
    let k = lb.(!i) in
    if k > after && unjustified p topo.(k) then best := k else incr i
  done;
  !best

(* Pick up to [max_learn_gates] unjustified gates, in topological order.
   Every way to justify one is tried; assignments common to all
   consistent justifications are learned into the current state. No
   consistent justification at all means the state is contradictory.
   Returns the number of learned assignments.

   The intersection is kept in stamps: after each consistent branch, a
   net is still common when its [stamp] holds the current generation,
   and [stamp_v] holds its value. The learned assignments are made in
   the last consistent branch's trail order. *)
let recursive_learn p =
  let learned = ref 0 and picked = ref 0 in
  let k = ref (next_unjustified p (-1)) in
  while !picked < max_learn_gates && !k < max_int do
    let j = p.c.Circuit.topo.(!k) in
    (match Circuit.node p.c j with
    | Circuit.Gate (g, fan) ->
      incr picked;
      let ctrl = Option.get (Gate.controlling g) in
      let common = ref false and n_fixes = ref 0 in
      for q = 0 to Array.length fan - 1 do
        let i = fan.(q) in
        if not (V3.is_binary p.work.(i)) then begin
          let mark = p.top in
          if assume p i ctrl then begin
            let prev = p.gen in
            p.gen <- p.gen + 1;
            for t = mark to p.top - 1 do
              let n = p.trail.(t) in
              if not !common then begin
                p.stamp.(n) <- p.gen;
                p.stamp_v.(n) <- p.work.(n)
              end
              else if p.stamp.(n) = prev && V3.equal p.stamp_v.(n) p.work.(n)
              then p.stamp.(n) <- p.gen;
              p.fixes.(t - mark) <- n
            done;
            n_fixes := p.top - mark;
            common := true
          end;
          undo_to p mark
        end
      done;
      (* no input can supply the controlling value *)
      if not !common then raise Contradiction;
      for t = 0 to !n_fixes - 1 do
        let n = p.fixes.(t) in
        if p.stamp.(n) = p.gen && not (V3.is_binary p.work.(n)) then begin
          assign p n p.stamp_v.(n) j why_learned;
          incr learned
        end
      done;
      settle p
    | _ -> ());
    k := next_unjustified p !k
  done;
  !learned

(* One deterministic deduction step: propagation plus depth-1 learning;
   [false] when the assumption is contradictory. The refutations found
   by [analyze] and their re-derivation in [check] both go through this
   single entry point, so a shipped refutation always replays. *)
let deduce p net v =
  assume p net v
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

(* The first [ne] edges of [codes], each [src * nl + dst] over [nl]
   literals, as CSR rows, each sorted and free of duplicates: a stable
   counting sort by destination, then one by source, written back into
   [codes]. *)
let csr nl codes ne =
  let count = Array.make (nl + 1) 0 in
  let scatter key from into value =
    Array.fill count 0 (nl + 1) 0;
    for e = 0 to ne - 1 do
      let k = key from.(e) in
      count.(k + 1) <- count.(k + 1) + 1
    done;
    for l = 1 to nl do
      count.(l) <- count.(l) + count.(l - 1)
    done;
    for e = 0 to ne - 1 do
      let k = key from.(e) in
      into.(count.(k)) <- value from.(e);
      count.(k) <- count.(k) + 1
    done
  in
  let by_dst = Array.make (max ne 1) 0 in
  scatter (fun e -> e mod nl) codes by_dst Fun.id;
  scatter (fun e -> e / nl) by_dst codes (fun e -> e mod nl);
  (* row [l] now ends at [count.(l)]; drop each row's duplicates,
     compacting the rows to the left *)
  let off = Array.make (nl + 1) 0 and w = ref 0 in
  for l = 0 to nl - 1 do
    let first = if l = 0 then 0 else count.(l - 1) in
    off.(l) <- !w;
    for k = first to count.(l) - 1 do
      if k = first || codes.(k) <> codes.(k - 1) then begin
        codes.(!w) <- codes.(k);
        incr w
      end
    done
  done;
  off.(nl) <- !w;
  (off, Array.sub codes 0 (max !w 1))

let analyze (view : View.t) ~(faults : Fault.t array) =
  let t0 = Clock.now () in
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
  let scratch = cut_scratch n in
  let proofs = Array.make nf None in
  let n_proven = ref 0 in
  let prove i pr =
    if proofs.(i) = None then begin
      proofs.(i) <- Some pr;
      incr n_proven
    end
  in
  (* Cone membership, walked once per seed and cached. *)
  let stack = Array.make n 0 in
  let cone_cache = Hashtbl.create 64 in
  let with_cone f k =
    let seed = Fault.seed f in
    let bits =
      match Hashtbl.find_opt cone_cache seed with
      | Some bits -> bits
      | None ->
        let bits = cone_bits c ~stack seed in
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
            match
              blocked_cut p obs_src in_cone scratch (entry_of p in_cone f)
            with
            | Some cut -> prove i (Unobservable cut)
            | None -> ()))
    faults;
  (* --- pass 2: one propagation per literal -------------------------- *)
  (* Implication edges, each [src * 2n + dst] over literals, in a buffer
     that doubles when full; sorted into the graph afterwards. *)
  let edges = ref (Array.make 4096 0) and n_edges = ref 0 in
  let add_edge a b =
    if !n_edges = Array.length !edges then begin
      let bigger = Array.make (2 * !n_edges) 0 in
      Array.blit !edges 0 bigger 0 !n_edges;
      edges := bigger
    end;
    !edges.(!n_edges) <- (a * 2 * n) + b;
    incr n_edges
  in
  let learned_total = ref 0 in
  (* Pass 2 proves nothing, so the faults open for FIRE are fixed here. *)
  let open_faults =
    Array.of_list
      (List.filter (fun i -> proofs.(i) = None) (List.init nf Fun.id))
  in
  (* The open faults blocked under the current net's 0-branch, in
     ascending order; only they can become FIRE candidates. *)
  let blocked0 = Array.make (Array.length open_faults) 0 in
  let n_blocked0 = ref 0 in
  let fire_candidates = ref [] in
  (* cheap, cone-unaware "is detection blocked" filter under the current
     branch assignment *)
  let obs = obs_support p obs_src in
  let no_cone _ = false in
  let cheap_blocked i =
    let f = faults.(i) in
    V3.equal p.work.(Fault.site_net c f) (stuck_value f)
    ||
    match entry_of p no_cone f with
    | Obs -> false
    | Blocked _ -> true
    | Net e -> obs.cnt.(e) = 0
  in
  (* Under a branch, [cheap_blocked i] can differ from its answer at the
     base only when the branch assigns a net the fault reads (site, side
     pins) or takes the support of its entry net away: a branch re-tests
     just the [readers] of its trail and retracted nets, stamped with
     the current [retest]. *)
  let readers = Array.make n [] in
  Array.iter
    (fun i ->
      List.iter
        (fun w -> readers.(w) <- i :: readers.(w))
        (match faults.(i).Fault.site with
        | Fault.Stem s -> [ s ]
        | Fault.Branch { node; _ } ->
          node :: Array.to_list (Circuit.fanins c node)))
    open_faults;
  let base_blocked = Array.map cheap_blocked (Array.init nf Fun.id) in
  let blocked_at_base =
    Array.of_list
      (List.filter (Array.get base_blocked) (Array.to_list open_faults))
  in
  let retest_stamp = Array.make nf 0 and retest = ref 0 in
  let retested = Array.make nf 0 and n_retested = ref 0 in
  let touch w =
    List.iter
      (fun i ->
        if retest_stamp.(i) <> !retest then begin
          retest_stamp.(i) <- !retest;
          retested.(!n_retested) <- i;
          incr n_retested
        end)
      readers.(w)
  in
  let blocked_now i =
    if retest_stamp.(i) = !retest then cheap_blocked i else base_blocked.(i)
  in
  for m = 0 to n - 1 do
    if (not (V3.is_binary base.(m))) && not p.uncontrollable.(m) then begin
      let branch value =
        let mark = p.top in
        let applied = assume p m (V3.of_bool value) in
        let applied =
          applied
          &&
          match recursive_learn p with
          | k ->
            learned_total := !learned_total + k;
            true
          | exception Contradiction -> false
        in
        let l = lit ~net:m ~value in
        if not applied then begin
          impossible.(l) <- true;
          undo_to p mark;
          false
        end
        else begin
          (* record the closure as successors + contrapositives *)
          for t = mark to p.top - 1 do
            let net = p.trail.(t) in
            if net <> m then begin
              let l' = lit ~net ~value:(V3.equal p.work.(net) V3.One) in
              add_edge l l';
              (* contraposition of a ternary implication only holds when the
                 branch net cannot settle at X in a completed test: [m = b]
                 forcing [x] excludes [m = b] under [not x], which pins [m]
                 only if [m] must be binary *)
              if def_binary.(m) then add_edge (l' lxor 1) (l lxor 1)
            end
          done;
          (* FIRE filter under this branch (state still applied) *)
          if def_binary.(m) && !n_proven < nf then begin
            let tested =
              if value then !n_blocked0 else Array.length open_faults
            in
            if tested > 0 then begin
              obs_retract p obs;
              incr retest;
              n_retested := 0;
              for t = 0 to p.top - 1 do
                touch p.trail.(t)
              done;
              for k = 0 to obs.n_retracted - 1 do
                if obs.cnt.(obs.retracted.(k)) = 0 then touch obs.retracted.(k)
              done;
              if not value then begin
                (* the untouched faults blocked at the base and the re-tested
                   ones blocked now, in ascending order *)
                n_blocked0 := 0;
                let add i =
                  if blocked_now i then begin
                    blocked0.(!n_blocked0) <- i;
                    incr n_blocked0
                  end
                in
                Array.iter
                  (fun i -> if retest_stamp.(i) <> !retest then add i)
                  blocked_at_base;
                for k = 0 to !n_retested - 1 do
                  add retested.(k)
                done;
                let now = Array.sub blocked0 0 !n_blocked0 in
                Array.sort Int.compare now;
                Array.blit now 0 blocked0 0 !n_blocked0
              end
              else begin
                let blocked = ref [] in
                for k = !n_blocked0 - 1 downto 0 do
                  if blocked_now blocked0.(k) then
                    blocked := blocked0.(k) :: !blocked
                done;
                if !blocked <> [] then
                  fire_candidates := (m, !blocked) :: !fire_candidates
              end;
              obs_restore obs
            end
          end;
          undo_to p mark;
          true
        end
      in
      n_blocked0 := 0;
      let ok0 = branch false in
      (* a conflicting 0-branch blocks every fault vacuously: candidates
         are whatever the 1-branch blocks *)
      if (not ok0) && def_binary.(m) then begin
        Array.blit open_faults 0 blocked0 0 (Array.length open_faults);
        n_blocked0 := Array.length open_faults
      end;
      ignore (branch true : bool)
    end
  done;
  let off, dst = csr (2 * n) !edges !n_edges in
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
    let mark = p.top in
    let ok = deduce p m mv in
    let r =
      (not ok) || V3.equal p.work.(l / 2) (V3.of_bool (l land 1 = 0))
    in
    undo_to p mark;
    r
  in
  let refute l candidates =
    let net = l / 2 in
    let v = V3.of_bool (l land 1 = 1) in
    let mark = p.top in
    let ok = deduce p net v in
    if not ok then begin
      undo_to p mark;
      Some Direct
    end
    else begin
      (* the literal's own deduction closure, for the [Via] first leg *)
      let own = Hashtbl.create 32 in
      for t = mark to p.top - 1 do
        let m = p.trail.(t) in
        if m <> net then Hashtbl.replace own m p.work.(m)
      done;
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
      (* both literals of a net sit next to each other in a sorted row;
         the candidates come out in descending net order *)
      let conflicts = ref [] in
      for k = off.(l) + 1 to off.(l + 1) - 1 do
        if dst.(k - 1) lxor 1 = dst.(k) then
          conflicts := (dst.(k - 1) / 2) :: !conflicts
      done;
      match !conflicts with
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
    let mark = p.top in
    let ev =
      if not (assume p m (V3.of_bool value)) then
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
                    blocked_cut p obs_src in_cone scratch
                      (entry_of p in_cone f)
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
      let mark = p.top in
      let ok = deduce p (l / 2) (V3.of_bool (l land 1 = 1)) in
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
        seconds = Clock.now () -. t0;
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
  let scratch = cut_scratch n in
  let f = u.fault in
  let s = Fault.site_net c f in
  let sv = stuck_value f in
  let stack = Array.make n 0 in
  let in_cone_of f = bit_mem (cone_bits c ~stack (Fault.seed f)) in
  let conflicts net v =
    let mark = p.top in
    let ok = deduce p net v in
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
    blocked_cut p obs_src in_cone scratch (entry_of p in_cone f) <> None
  in
  match u.proof with
  | Unexcitable ->
    V3.equal p.base.(s) sv || conflicts s (V3.bnot sv)
  | Unobservable cut ->
    let in_cone = in_cone_of f in
    valid_cut in_cone cut && blocked_now in_cone
  | Fire { m; if0; if1 } ->
    t.def_binary.(m)
    && (not (V3.is_binary p.base.(m)))
    &&
    let branch value ev =
      let mark = p.top in
      let applied = assume p m (V3.of_bool value) in
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
      let mark = p.top in
      let ok = deduce p m mv in
      let r = (not ok) || V3.equal p.work.(net) (V3.bnot value) in
      undo_to p mark;
      r
    in
    requirement_ok
    && (match refutation with
       | Direct -> conflicts net value
       | Via { via; value = vv } ->
         let fwd =
           let mark = p.top in
           let ok = deduce p net value in
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
