open Fst_logic
open Fst_netlist
open Fst_fault
module Scoap = Fst_testability.Scoap

type result = Test of (int * V3.t) list | Untestable | Aborted

type stop =
  | Found
  | Exhausted
  | Backtrack_limit
  | Dead_end
  | Frontier_prune
  | Abort_hook

let all_stops =
  [ Found; Exhausted; Backtrack_limit; Dead_end; Frontier_prune; Abort_hook ]

let stop_index = function
  | Found -> 0
  | Exhausted -> 1
  | Backtrack_limit -> 2
  | Dead_end -> 3
  | Frontier_prune -> 4
  | Abort_hook -> 5

let stop_name = function
  | Found -> "found"
  | Exhausted -> "exhausted"
  | Backtrack_limit -> "backtrack_limit"
  | Dead_end -> "dead_end"
  | Frontier_prune -> "frontier_prune"
  | Abort_hook -> "abort_hook"

type stats = {
  backtracks : int;
  decisions : int;
  implications : int;
  stop : stop;
}

(* Values are kept as two flat planes (good machine, faulty machine); the
   faulty plane embeds stem-fault injections, while branch faults are
   applied at the consumer pin on read. After the first sweep (of the
   good plane; see [imply]), implication is event-driven: only the
   fanout cones of the free inputs assigned since the last call are
   re-evaluated, in level order. Per-net
   flags, stamps, assignments and stem faults are bytes, to keep each
   search's allocation small. The nets carrying a fault effect are kept
   as a set that [update] maintains: the first [n_effects] entries of
   [effects], with each member's index in [effect_at], so adding and
   removing a net are O(1) and no search step scans every net. The
   D-frontier of a step is a binary min-heap over the first [n_frontier]
   entries of [frontier], keyed on (SCOAP observability ascending, net
   descending); each candidate is offered once per step, [offered]
   holding the step ([round]) in which a net was last offered, and the
   heap is popped only as far as the choice of objective needs. The heap
   starts at 64 slots and doubles when full, and the stamps are bytes:
   every search allocates its per-net arrays afresh, and two net-sized
   int arrays here raised the major collections of an fsim-tail flow
   from 25 to 29. *)
type engine = {
  view : View.t;
  c : Circuit.t;
  m : Scoap.t;
  vgood : V3.t array;
  vfault : V3.t array;
  assigned : Bytes.t; (* per net; meaningful for free nets only *)
  stem_stuck : Bytes.t; (* per net; X = no stem fault on this net *)
  branched : Bytes.t; (* per node: some pin carries a branch fault *)
  mutable branches : (int * int * V3.t) list; (* (node, pin, stuck) *)
  sites : (int * V3.t) list; (* (source net, stuck) for excitation *)
  obs_target : Bytes.t; (* per net: source of an observation point *)
  obs_net : Bytes.t; (* per net: observed directly ([View.Onet]) *)
  obs_pins : (int * int) array; (* [View.Opin] points: (node, pin) *)
  effects : int array; (* the first [n_effects] hold the effect nets *)
  effect_at : int array; (* per net: its index in [effects], or -1 *)
  mutable n_effects : int;
  mutable frontier : int array; (* the first [n_frontier] are the heap *)
  mutable n_frontier : int;
  offered : Bytes.t; (* per net: the last [round] it was offered in *)
  mutable round : int; (* 1 to 255; the marks are cleared on wrap-around *)
  visit_stamp : Bytes.t; (* per net: last X-path stamp that reached it *)
  mutable stamp : int; (* 1 to 255; the marks are cleared on wrap-around *)
  mutable dirty : int list; (* free inputs assigned since the last [imply] *)
  mutable swept : bool; (* the first sweep has run *)
  queued : Bytes.t; (* per gate: waiting in a level bucket *)
  bucket : int array; (* per level: first queued gate, or -1 *)
  next_queued : int array; (* per gate: next gate in its level bucket *)
  mutable top_level : int; (* highest level holding a queued gate *)
  mutable exhaustion : stop; (* [Exhausted] while the search is complete *)
  mutable backtracks : int;
  mutable decisions : int;
  mutable implications : int;
}

(* A [V3.t] stored as one byte. *)
let get3 b i = V3.of_int (Char.code (Bytes.get b i))
let set3 b i v = Bytes.set b i (Char.chr (V3.to_int v))
let x_byte = Char.chr (V3.to_int V3.X)

let make_engine view ~scoap ~faults =
  let c = view.View.circuit in
  let n = Circuit.num_nets c in
  let levels = 1 + Array.fold_left Int.max 0 c.Circuit.level in
  let e =
    {
      view;
      c;
      m = scoap;
      vgood = Array.make n V3.X;
      vfault = Array.make n V3.X;
      assigned = Bytes.make n x_byte;
      stem_stuck = Bytes.make n x_byte;
      branched = Bytes.make n '\000';
      branches = [];
      sites = [];
      obs_target = Bytes.make n '\000';
      obs_net = Bytes.make n '\000';
      obs_pins =
        Array.of_list
          (List.filter_map
             (function
               | View.Opin { node; pin } -> Some (node, pin)
               | View.Onet _ -> None)
             (Array.to_list view.View.observe));
      effects = Array.make n 0;
      effect_at = Array.make n (-1);
      n_effects = 0;
      frontier = Array.make 64 0;
      n_frontier = 0;
      offered = Bytes.make n '\000';
      round = 0;
      visit_stamp = Bytes.make n '\000';
      stamp = 0;
      dirty = [];
      swept = false;
      queued = Bytes.make n '\000';
      bucket = Array.make levels (-1);
      next_queued = Array.make n (-1);
      top_level = 0;
      exhaustion = Exhausted;
      backtracks = 0;
      decisions = 0;
      implications = 0;
    }
  in
  let sites = ref [] in
  List.iter
    (fun (f : Fault.t) ->
      let stuck = V3.of_bool f.Fault.stuck in
      (match f.Fault.site with
       | Fault.Stem net -> set3 e.stem_stuck net stuck
       | Fault.Branch { node; pin } ->
         Bytes.set e.branched node '\001';
         e.branches <- (node, pin, stuck) :: e.branches);
      sites := (Fault.site_net c f, stuck) :: !sites)
    faults;
  let e = { e with sites = !sites } in
  Array.iter
    (fun op ->
      Bytes.set e.obs_target (View.obs_source_net view op) '\001';
      match op with
      | View.Onet n -> Bytes.set e.obs_net n '\001'
      | View.Opin _ -> ())
    view.View.observe;
  e

let good e n = e.vgood.(n)

(* The stuck value of the first fault on pin [pin] of [node] in
   [overrides], or X. *)
let rec stuck_at node pin = function
  | [] -> V3.X
  | (n, p, stuck) :: rest ->
    if n = node && p = pin then stuck else stuck_at node pin rest

(* What pin [pin] of [node] reads from [net] in [plane], under the
   branch faults [overrides]. *)
let read plane node overrides pin net =
  match overrides with
  | [] -> plane.(net)
  | _ -> (
    match stuck_at node pin overrides with V3.X -> plane.(net) | stuck -> stuck)

(* The branch faults the faulty plane of [node] reads through. *)
let overrides e node =
  if Bytes.get e.branched node = '\000' then [] else e.branches

(* Faulty value seen by pin [pin] of node [node] whose source is [net]. *)
let pin_fault e node pin net = read e.vfault node (overrides e node) pin net

let is_effect_at_pin e node pin net =
  let g = e.vgood.(net) and f = pin_fault e node pin net in
  V3.is_binary g && V3.is_binary f && not (V3.equal g f)

let net_effect e n =
  let g = e.vgood.(n) and f = e.vfault.(n) in
  V3.is_binary g && V3.is_binary f && not (V3.equal g f)

let net_has_x e n = not (V3.is_binary e.vgood.(n)) || not (V3.is_binary e.vfault.(n))

let source_value e i =
  match e.view.View.fixed.(i) with
  | Some v -> v
  | None -> if e.view.View.free.(i) then get3 e.assigned i else V3.X

(* Allocation-free n-ary gate evaluation over one plane. *)
let eval_plane g fi plane node overrides =
  let n = Array.length fi in
  match g with
  | Gate.And | Gate.Nand ->
    let acc = ref V3.One in
    for k = 0 to n - 1 do
      acc := V3.band !acc (read plane node overrides k fi.(k))
    done;
    if Gate.inverting g then V3.bnot !acc else !acc
  | Gate.Or | Gate.Nor ->
    let acc = ref V3.Zero in
    for k = 0 to n - 1 do
      acc := V3.bor !acc (read plane node overrides k fi.(k))
    done;
    if Gate.inverting g then V3.bnot !acc else !acc
  | Gate.Xor | Gate.Xnor ->
    let acc = ref V3.Zero in
    for k = 0 to n - 1 do
      acc := V3.bxor !acc (read plane node overrides k fi.(k))
    done;
    if Gate.inverting g then V3.bnot !acc else !acc
  | Gate.Not -> V3.bnot (read plane node overrides 0 fi.(0))
  | Gate.Buf -> read plane node overrides 0 fi.(0)

(* Adds net [i] to the effect set or removes it, after its values
   changed. *)
let track e i =
  let k = e.effect_at.(i) in
  if net_effect e i then begin
    if k < 0 then begin
      e.effect_at.(i) <- e.n_effects;
      e.effects.(e.n_effects) <- i;
      e.n_effects <- e.n_effects + 1
    end
  end
  else if k >= 0 then begin
    let last = e.effects.(e.n_effects - 1) in
    e.effects.(k) <- last;
    e.effect_at.(last) <- k;
    e.effect_at.(i) <- -1;
    e.n_effects <- e.n_effects - 1
  end

(* Recomputes both planes of net [i] from its node and keeps the effect
   set up to date; true when either plane changed. *)
let update e i =
  let old_good = e.vgood.(i) and old_fault = e.vfault.(i) in
  (match e.c.Circuit.nodes.(i) with
   | Circuit.Input | Circuit.Dff _ ->
     let v = source_value e i in
     e.vgood.(i) <- v;
     e.vfault.(i) <- v
   | Circuit.Const v ->
     e.vgood.(i) <- v;
     e.vfault.(i) <- v
   | Circuit.Gate (g, fi) ->
     e.vgood.(i) <- eval_plane g fi e.vgood i [];
     e.vfault.(i) <- eval_plane g fi e.vfault i (overrides e i));
  (match get3 e.stem_stuck i with
   | V3.X -> ()
   | stuck -> e.vfault.(i) <- stuck);
  let changed =
    not (V3.equal old_good e.vgood.(i) && V3.equal old_fault e.vfault.(i))
  in
  if changed then track e i;
  changed

(* Queues the gate consumers of net [n] in their level buckets. Flip-flop
   consumers are skipped: a flip-flop output is a source. *)
let schedule_fanout e n =
  let fo = e.c.Circuit.fanout.(n) in
  for k = 0 to Array.length fo - 1 do
    let consumer = fo.(k) in
    match e.c.Circuit.nodes.(consumer) with
    | Circuit.Gate _ when Bytes.get e.queued consumer = '\000' ->
      Bytes.set e.queued consumer '\001';
      let l = e.c.Circuit.level.(consumer) in
      e.next_queued.(consumer) <- e.bucket.(l);
      e.bucket.(l) <- consumer;
      if l > e.top_level then e.top_level <- l
    | Circuit.Gate _ | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> ()
  done

(* Every net's value is a function of its fanins' values, so re-evaluating
   the fanout of each changed input level by level (a gate's fanins all
   sit at lower levels) reaches the state a full sweep would. *)
let imply e =
  e.implications <- e.implications + 1;
  let changed = ref e.dirty in
  if not e.swept then begin
    (* The first call sweeps the good plane only. The faulty plane
       differs from it only downstream of the fault sites, so it starts
       as a copy, and the sites are re-evaluated like changed inputs. *)
    e.swept <- true;
    Array.iter
      (fun i ->
        e.vgood.(i) <-
          (match e.c.Circuit.nodes.(i) with
           | Circuit.Input | Circuit.Dff _ -> source_value e i
           | Circuit.Const v -> v
           | Circuit.Gate (g, fi) -> eval_plane g fi e.vgood i []))
      e.c.Circuit.topo;
    Array.blit e.vgood 0 e.vfault 0 (Array.length e.vgood);
    changed :=
      List.map fst e.sites @ List.map (fun (node, _, _) -> node) e.branches
  end;
  List.iter (fun i -> if update e i then schedule_fanout e i) !changed;
  let l = ref 1 in
  while !l <= e.top_level do
    while e.bucket.(!l) >= 0 do
      let i = e.bucket.(!l) in
      e.bucket.(!l) <- e.next_queued.(i);
      Bytes.set e.queued i '\000';
      if update e i then schedule_fanout e i
    done;
    incr l
  done;
  e.top_level <- 0;
  e.dirty <- []

let assign e pi v =
  set3 e.assigned pi v;
  e.dirty <- pi :: e.dirty

(* Nets carrying a fault effect on their own (stem faults, propagated
   effects), in no particular order. *)
let effect_nets e = List.init e.n_effects (fun k -> e.effects.(k))

(* An effect net observed directly, or an effect read by an observed
   pin. *)
let detected e =
  let rec at_net k =
    k < e.n_effects
    && (Bytes.get e.obs_net e.effects.(k) <> '\000' || at_net (k + 1))
  in
  at_net 0
  || Array.exists
       (fun (node, pin) ->
         is_effect_at_pin e node pin (Circuit.fanins e.c node).(pin))
       e.obs_pins

(* An excited branch fault whose effect has not yet passed its gate lives
   only on a consumer pin. *)
let branch_effect e =
  List.exists
    (fun (node, pin, _) ->
      is_effect_at_pin e node pin (Circuit.fanins e.c node).(pin))
    e.branches

(* Does gate [i] read a fault effect on some pin? *)
let feeds_effect e i fi =
  let rec from pin =
    pin < Array.length fi && (is_effect_at_pin e i pin fi.(pin) || from (pin + 1))
  in
  from 0

(* Does gate [a] come before gate [b] in the frontier: easier to
   observe, ties broken by the higher net? *)
let before e a b =
  let oa = e.m.Scoap.obs.(a) and ob = e.m.Scoap.obs.(b) in
  oa < ob || (oa = ob && a > b)

let rec sift_down e k =
  let h = e.frontier and n = e.n_frontier in
  let l = (2 * k) + 1 in
  if l < n then begin
    let c = if l + 1 < n && before e h.(l + 1) h.(l) then l + 1 else l in
    if before e h.(c) h.(k) then begin
      let x = h.(k) in
      h.(k) <- h.(c);
      h.(c) <- x;
      sift_down e c
    end
  end

(* Offers gate [i] to the frontier of the current round: a gate whose
   output is still undetermined but which sees a fault effect on some
   input, the classic D-frontier. A gate with no branch fault reads its
   fanins as they are, so it sees the effect of the effect net it
   consumes; on a branch-faulted gate the pin-level test drops it when
   its pin masks the effect. *)
let offer e i =
  if Char.code (Bytes.get e.offered i) <> e.round then begin
    Bytes.set e.offered i (Char.chr e.round);
    match e.c.Circuit.nodes.(i) with
    | Circuit.Gate (_, fi)
      when net_has_x e i
           && (Bytes.get e.branched i = '\000' || feeds_effect e i fi) ->
      if e.n_frontier = Array.length e.frontier then begin
        let bigger = Array.make (2 * e.n_frontier) 0 in
        Array.blit e.frontier 0 bigger 0 e.n_frontier;
        e.frontier <- bigger
      end;
      e.frontier.(e.n_frontier) <- i;
      e.n_frontier <- e.n_frontier + 1
    | Circuit.Gate _ | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> ()
  end

(* Builds the frontier heap of this step. A pin reads an effect only from
   an effect net ([effects]) or through a branch fault, so the candidates
   are the consumers of the effect nets and the branch-faulted gates. *)
let build_frontier e =
  if e.round = 255 then begin
    Bytes.fill e.offered 0 (Bytes.length e.offered) '\000';
    e.round <- 1
  end
  else e.round <- e.round + 1;
  e.n_frontier <- 0;
  List.iter (fun (node, _, _) -> offer e node) e.branches;
  for k = 0 to e.n_effects - 1 do
    let fo = e.c.Circuit.fanout.(e.effects.(k)) in
    for j = 0 to Array.length fo - 1 do
      offer e fo.(j)
    done
  done;
  for k = (e.n_frontier / 2) - 1 downto 0 do
    sift_down e k
  done

(* Removes and returns the first gate of the frontier heap. *)
let pop_frontier e =
  let h = e.frontier in
  let top = h.(0) in
  e.n_frontier <- e.n_frontier - 1;
  h.(0) <- h.(e.n_frontier);
  sift_down e 0;
  top

let next_stamp e =
  if e.stamp = 255 then begin
    Bytes.fill e.visit_stamp 0 (Bytes.length e.visit_stamp) '\000';
    e.stamp <- 1
  end
  else e.stamp <- e.stamp + 1

(* Is there a path of not-yet-determined nets from [start] (a frontier gate
   output) to an observation source? Necessary condition for the fault
   effect ever reaching an observation point. Nets stamped with the
   current [e.stamp] are known not to reach one: a failed search explores
   all it stamps, so the caller keeps the stamp across failed searches
   over one state and advances it after a success. *)
let x_path e start =
  let stamp = e.stamp in
  let rec dfs n =
    if Char.code (Bytes.get e.visit_stamp n) = stamp then false
    else begin
      Bytes.set e.visit_stamp n (Char.chr stamp);
      Bytes.get e.obs_target n <> '\000' || through e.c.Circuit.fanout.(n) 0
    end
  and through fo k =
    k < Array.length fo
    && (let consumer = fo.(k) in
        (match e.c.Circuit.nodes.(consumer) with
         | Circuit.Gate _ -> net_has_x e consumer && dfs consumer
         | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> false)
        || through fo (k + 1))
  in
  dfs start

let noncontrolling g =
  match Gate.controlling g with
  | Some V3.Zero -> V3.One
  | Some V3.One -> V3.Zero
  | Some V3.X -> assert false
  | None -> V3.X

(* Objective for propagating through frontier gate [i]: one still-unknown
   side input set to its non-controlling value (for xor-family, the cheaper
   binary value). Picks the hardest candidate first so impossible
   propagations fail early. *)
let propagation_objective e i =
  match e.c.Circuit.nodes.(i) with
  | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> None
  | Circuit.Gate (g, fi) ->
    let best = ref None in
    Array.iter
      (fun f ->
        if V3.equal (good e f) V3.X then begin
          let v =
            match noncontrolling g with
            | V3.X ->
              if e.m.Scoap.cc0.(f) <= e.m.Scoap.cc1.(f) then V3.Zero
              else V3.One
            | v -> v
          in
          let cost = Scoap.cc e.m f v in
          if cost < Scoap.infinite then
            match !best with
            | Some (_, _, c0) when c0 >= cost -> ()
            | Some _ | None -> best := Some (f, v, cost)
        end)
      fi;
    (match !best with Some (f, v, _) -> Some (f, v) | None -> None)

(* Records the first reason the search stopped being complete. *)
let incomplete e why = if e.exhaustion = Exhausted then e.exhaustion <- why

let objective e =
  if e.n_effects = 0 && not (branch_effect e) then
    (* Fault not excited anywhere: drive some site to the opposite value. *)
    let unexcited =
      List.filter (fun (net, _) -> V3.equal (good e net) V3.X) e.sites
    in
    let viable =
      List.filter
        (fun (net, stuck) -> Scoap.cc e.m net (V3.bnot stuck) < Scoap.infinite)
        unexcited
    in
    match viable with
    | (net, stuck) :: _ -> Some (net, V3.bnot stuck)
    | [] -> None
  else begin
    (* The first gate, easiest to observe first (ties: higher net first),
       that has an X-path and yields an objective. Gates are popped from
       the heap only until one is chosen. X-paths are searched lazily,
       only for gates with an objective, and for the others only until
       one is found reachable: a reachable frontier that yields no
       objective loses completeness. *)
    build_frontier e;
    next_stamp e;
    let reaches i =
      x_path e i
      && begin
        next_stamp e;
        true
      end
    in
    let rec first ~reached =
      if e.n_frontier = 0 then begin
        if reached then incomplete e Frontier_prune;
        None
      end
      else
        let i = pop_frontier e in
        match propagation_objective e i with
        | Some o when reaches i -> Some o
        | Some _ -> first ~reached
        | None -> first ~reached:(reached || reaches i)
    in
    first ~reached:false
  end

(* Walk an objective back to a free input along still-unknown nets, guided
   by controllability. Only pins whose needed value has finite cost are
   considered, which keeps the walk inside justifiable logic. *)
let rec backtrace e net v =
  if e.view.View.free.(net) then Some (net, v)
  else
    match e.c.Circuit.nodes.(net) with
    | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> None
    | Circuit.Gate (g, fi) -> (
      match g with
      | Gate.Not -> backtrace e fi.(0) (V3.bnot v)
      | Gate.Buf -> backtrace e fi.(0) v
      | Gate.And | Gate.Nand | Gate.Or | Gate.Nor -> (
        let base_v = if Gate.inverting g then V3.bnot v else v in
        let ctrl =
          match Gate.controlling g with
          | Some c -> c
          | None -> assert false
        in
        let base_ctrl_out =
          match g with
          | Gate.And | Gate.Nand -> V3.Zero
          | Gate.Or | Gate.Nor -> V3.One
          | Gate.Xor | Gate.Xnor | Gate.Not | Gate.Buf -> assert false
        in
        let single = V3.equal base_v base_ctrl_out in
        let needed = if single then ctrl else V3.bnot ctrl in
        let candidates =
          Array.to_list fi
          |> List.filter (fun f ->
                 V3.equal (good e f) V3.X
                 && Scoap.cc e.m f needed < Scoap.infinite)
        in
        let pick cmp =
          List.fold_left
            (fun acc f ->
              match acc with
              | None -> Some f
              | Some b ->
                if cmp (Scoap.cc e.m f needed) (Scoap.cc e.m b needed) then
                  Some f
                else acc)
            None candidates
        in
        let choice = if single then pick ( < ) else pick ( > ) in
        match choice with
        | Some f -> backtrace e f needed
        | None -> None)
      | Gate.Xor | Gate.Xnor -> (
        let xs, binaries =
          Array.to_list fi
          |> List.partition (fun f -> V3.equal (good e f) V3.X)
        in
        match xs with
        | [] -> None
        | _ ->
          let viable =
            List.filter
              (fun f ->
                min e.m.Scoap.cc0.(f) e.m.Scoap.cc1.(f) < Scoap.infinite)
              xs
          in
          (match viable with
           | [] -> None
           | f :: _ ->
             let needed =
               if List.length xs = 1 then begin
                 let parity =
                   List.fold_left
                     (fun acc b -> V3.bxor acc (good e b))
                     V3.Zero binaries
                 in
                 let target = if Gate.inverting g then V3.bnot v else v in
                 V3.bxor target parity
               end
               else if e.m.Scoap.cc0.(f) <= e.m.Scoap.cc1.(f) then V3.Zero
               else V3.One
             in
             if V3.equal needed V3.X then None
             else if Scoap.cc e.m f needed >= Scoap.infinite then None
             else backtrace e f needed)))

type decision = { pi : int; mutable flipped : bool }

let extract_test e =
  let acc = ref [] in
  for i = Bytes.length e.assigned - 1 downto 0 do
    let v = get3 e.assigned i in
    if e.view.View.free.(i) && V3.is_binary v then acc := (i, v) :: !acc
  done;
  !acc

let run ?(backtrack_limit = 1000) ?should_abort ?scoap view ~faults =
  let scoap =
    match scoap with Some s -> s | None -> Fst_testability.Scoap.compute view
  in
  let e = make_engine view ~scoap ~faults in
  let stack = ref [] in
  let rec step () =
    imply e;
    if detected e then (Test (extract_test e), Found)
    else
      match objective e with
      | Some (net, v) -> (
        match backtrace e net v with
        | Some (pi, pv) ->
          assign e pi pv;
          e.decisions <- e.decisions + 1;
          stack := { pi; flipped = false } :: !stack;
          step ()
        | None ->
          (* A backtrace dead-end only shows that this particular objective
             cannot be justified, not that the subtree is test-free:
             abandoning it costs completeness. *)
          incomplete e Dead_end;
          backtrack ())
      | None -> backtrack ()
  and backtrack () =
    if e.backtracks >= backtrack_limit then (Aborted, Backtrack_limit)
    else if
      (match should_abort with Some f -> f () | None -> false)
    then (Aborted, Abort_hook)
    else
      match !stack with
      | [] ->
        ((if e.exhaustion = Exhausted then Untestable else Aborted), e.exhaustion)
      | d :: rest ->
        if d.flipped then begin
          assign e d.pi V3.X;
          stack := rest;
          backtrack ()
        end
        else begin
          d.flipped <- true;
          e.backtracks <- e.backtracks + 1;
          assign e d.pi (V3.bnot (get3 e.assigned d.pi));
          step ()
        end
  in
  let result, stop = step () in
  ( result,
    {
      backtracks = e.backtracks;
      decisions = e.decisions;
      implications = e.implications;
      stop;
    } )

module Probe = struct
  type t = engine

  let create ?scoap view ~faults =
    let scoap =
      match scoap with Some s -> s | None -> Fst_testability.Scoap.compute view
    in
    make_engine view ~scoap ~faults

  let assign = assign
  let imply = imply
  let good e n = e.vgood.(n)
  let faulty e n = e.vfault.(n)
  let effect_nets = effect_nets
  let detected = detected
end
