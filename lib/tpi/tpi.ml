open Fst_logic
open Fst_netlist

type ordering = Greedy_functional | Natural | Shuffled of int64

type options = {
  chains : int;
  justify_depth : int;
  max_path_cost : int;
  ordering : ordering;
}

let default_options =
  { chains = 1; justify_depth = 4; max_path_cost = 16;
    ordering = Greedy_functional }

type state = {
  b : Builder.t;
  scan_mode : int;
  scan_mode_n : int;
  mutable constraints : (int * V3.t) list;
  mutable never_constrain : int list; (* scan-in nets stay free *)
  mutable protected : int list; (* chain nets that must stay unknown *)
  mutable test_points : int;
  mutable mux_segments : int;
  tp_cache : (int * V3.t, int) Hashtbl.t;
  mutable values : V3.t array; (* scan-mode constant propagation *)
  mutable values_valid : bool;
  mutable fanout : int list array; (* consumers, rebuilt on demand *)
  mutable fanout_valid : bool;
}

let node_fanins st i =
  match Builder.node st.b i with
  | Circuit.Input | Circuit.Const _ -> [||]
  | Circuit.Gate (_, fi) -> fi
  | Circuit.Dff d -> [| d |]

(* Scan-mode constant propagation over the (mutable) builder: constrained
   inputs take their values, everything sequential reads as unknown. *)
let compute_values st =
  let n = Builder.net_count st.b in
  let v = Array.make n V3.X in
  let visited = Array.make n false in
  let rec eval i =
    if visited.(i) then v.(i)
    else begin
      let r =
        match Builder.node st.b i with
        | Circuit.Input -> (
          match List.assoc_opt i st.constraints with
          | Some k -> k
          | None -> V3.X)
        | Circuit.Const k -> k
        | Circuit.Dff _ -> V3.X
        | Circuit.Gate (g, fi) -> Gate.eval g (Array.map eval fi)
      in
      visited.(i) <- true;
      v.(i) <- r;
      r
    end
  in
  for i = 0 to n - 1 do
    ignore (eval i)
  done;
  v

let values st =
  if not st.values_valid then begin
    st.values <- compute_values st;
    st.values_valid <- true
  end;
  st.values

let invalidate st =
  st.values_valid <- false;
  st.fanout_valid <- false

let fanout st =
  if not st.fanout_valid then begin
    let n = Builder.net_count st.b in
    let fo = Array.make n [] in
    for i = 0 to n - 1 do
      Array.iter (fun f -> fo.(f) <- i :: fo.(f)) (node_fanins st i)
    done;
    st.fanout <- fo;
    st.fanout_valid <- true
  end;
  st.fanout

let noncontrolling_for = function
  | Gate.And | Gate.Nand -> V3.One
  | Gate.Or | Gate.Nor -> V3.Zero
  | Gate.Xor | Gate.Xnor -> V3.Zero
  | Gate.Not | Gate.Buf -> V3.X (* no side inputs exist *)

(* Shallow backward justification of [net = target] by assigning
   unconstrained primary inputs. Returns the extra constraints needed, or
   None. Sequential elements and xor gates are given up on. *)
let rec justify st depth net target acc =
  if depth < 0 then None
  else
    match Builder.node st.b net with
    | Circuit.Input ->
      if List.mem net st.never_constrain then None
      else (
        match List.assoc_opt net st.constraints, List.assoc_opt net acc with
        | Some v, _ | None, Some v ->
          if V3.equal v target then Some acc else None
        | None, None -> Some ((net, target) :: acc))
    | Circuit.Const k -> if V3.equal k target then Some acc else None
    | Circuit.Dff _ -> None
    | Circuit.Gate (g, fi) -> (
      match g with
      | Gate.Buf -> justify st (depth - 1) fi.(0) target acc
      | Gate.Not -> justify st (depth - 1) fi.(0) (V3.bnot target) acc
      | Gate.Xor | Gate.Xnor -> None
      | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
        let base_target = if Gate.inverting g then V3.bnot target else target in
        let ctrl =
          match Gate.controlling g with
          | Some c -> c
          | None -> assert false
        in
        let controlled_out =
          match g with
          | Gate.And | Gate.Nand -> V3.Zero
          | Gate.Or | Gate.Nor -> V3.One
          | Gate.Xor | Gate.Xnor | Gate.Not | Gate.Buf -> assert false
        in
        if V3.equal base_target controlled_out then
          (* one controlling input suffices *)
          let rec try_pins k =
            if k >= Array.length fi then None
            else
              match justify st (depth - 1) fi.(k) ctrl acc with
              | Some acc' -> Some acc'
              | None -> try_pins (k + 1)
          in
          try_pins 0
        else
          (* every input must be non-controlling *)
          Array.fold_left
            (fun acc_opt f ->
              match acc_opt with
              | None -> None
              | Some acc -> justify st (depth - 1) f (V3.bnot ctrl) acc)
            (Some acc) fi)

(* Commits [extra] constraints if they leave every protected chain net
   unknown; rolls back otherwise. *)
let try_commit st extra =
  if extra = [] then true
  else begin
    let saved = st.constraints in
    st.constraints <- extra @ st.constraints;
    st.values_valid <- false;
    let v = values st in
    let ok = List.for_all (fun n -> V3.equal v.(n) V3.X) st.protected in
    if not ok then begin
      st.constraints <- saved;
      st.values_valid <- false
    end;
    ok
  end

let insert_test_point st ~node ~pin ~side ~nc =
  let tp =
    match Hashtbl.find_opt st.tp_cache (side, nc) with
    | Some tp -> tp
    | None ->
      let name =
        Printf.sprintf "tp%d_%s" st.test_points
          (match nc with V3.Zero -> "f0" | V3.One -> "f1" | V3.X -> "fx")
      in
      let tp =
        match nc with
        | V3.Zero -> Builder.add_gate ~name st.b Gate.And [ side; st.scan_mode_n ]
        | V3.One -> Builder.add_gate ~name st.b Gate.Or [ side; st.scan_mode ]
        | V3.X -> assert false
      in
      Hashtbl.add st.tp_cache (side, nc) tp;
      st.test_points <- st.test_points + 1;
      tp
  in
  Builder.rewire_fanin st.b ~node ~pin ~net:tp;
  invalidate st

(* Forces every side input of [gate_net] (entered from [entering]) to a
   transparent value: by existing constants, by PI justification, or by a
   control test point. For and/or-family gates transparent means the
   non-controlling value; for xor-family gates any binary value is
   transparent (a constant 1 contributes an inversion, accounted for in
   {!gate_parity}). *)
let sensitize_gate st ~justify_depth ~gate_net ~entering =
  match Builder.node st.b gate_net with
  | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> assert false
  | Circuit.Gate (g, fi) ->
    let nc = noncontrolling_for g in
    Array.iteri
      (fun pin side ->
        if side <> entering then begin
          let v = (values st).(side) in
          let transparent =
            match g with
            | Gate.Xor | Gate.Xnor -> V3.is_binary v
            | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Not | Gate.Buf
              -> V3.equal v nc
          in
          if not transparent then begin
            assert (V3.equal v V3.X);
            let justified =
              match justify st justify_depth side nc [] with
              | Some extra -> try_commit st extra
              | None -> false
            in
            if not justified then
              insert_test_point st ~node:gate_net ~pin ~side ~nc
          end
        end)
      fi

(* Post-sensitization inversion contributed by one path gate: the gate's
   own polarity, plus one inversion per constant-1 side pin of an
   xor-family gate. *)
let gate_parity st ~gate_net ~entering =
  match Builder.node st.b gate_net with
  | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> assert false
  | Circuit.Gate (g, fi) -> (
    let base = Gate.inverting g in
    match g with
    | Gate.Xor | Gate.Xnor ->
      let v = values st in
      Array.fold_left
        (fun acc f ->
          if f = entering then acc
          else
            match v.(f) with
            | V3.One -> not acc
            | V3.Zero | V3.X -> acc)
        base fi
    | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Not | Gate.Buf -> base)

(* Cheapest sensitizable route from [src] through still-unknown, unused
   gates (Dijkstra). Crossing a gate costs 1 plus one unit per side pin
   that would need forcing (its scan-mode value is still unknown), so the
   chosen paths minimize inserted test points, not just gate count.
   Returns (predecessor, cost) maps over nets (-2 unreached, -1 start). *)
let cheapest_reach st ~src ~used =
  let n = Builder.net_count st.b in
  let prev = Array.make n (-2) in
  let cost = Array.make n max_int in
  prev.(src) <- -1;
  cost.(src) <- 0;
  let v = values st in
  let fo = fanout st in
  (* An xor-family gate transmits the entering net only when it feeds an
     odd number of pins (XOR(a,a) is constant 0 even though the three-valued
     evaluator reads it as X). And-family gates transmit for any
     multiplicity. *)
  let transmits consumer x =
    match Builder.node st.b consumer with
    | Circuit.Gate ((Gate.Xor | Gate.Xnor), fi) ->
      let m = Array.fold_left (fun acc f -> if f = x then acc + 1 else acc) 0 fi in
      m land 1 = 1
    | Circuit.Gate
        ((Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Not | Gate.Buf), _)
      -> true
    | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> false
  in
  let crossing_cost consumer x =
    match Builder.node st.b consumer with
    | Circuit.Gate (_, fi) ->
      let forced = ref 0 in
      Array.iter
        (fun f -> if f <> x && V3.equal v.(f) V3.X then incr forced)
        fi;
      1 + !forced
    | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> 1
  in
  let module Pq = Set.Make (struct
    type t = int * int (* cost, net *)

    let compare = compare
  end) in
  let queue = ref (Pq.singleton (0, src)) in
  while not (Pq.is_empty !queue) do
    let (c, x) as entry = Pq.min_elt !queue in
    queue := Pq.remove entry !queue;
    if c = cost.(x) then
      List.iter
        (fun consumer ->
          match Builder.node st.b consumer with
          | Circuit.Gate _ ->
            if (not used.(consumer))
               && V3.equal v.(consumer) V3.X
               && transmits consumer x
            then begin
              let c' = c + crossing_cost consumer x in
              if c' < cost.(consumer) then begin
                cost.(consumer) <- c';
                prev.(consumer) <- x;
                queue := Pq.add (c', consumer) !queue
              end
            end
          | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> ())
        fo.(x)
  done;
  (prev, cost)

let reconstruct_path prev ~target =
  let rec walk n acc = if prev.(n) = -1 then acc else walk prev.(n) (n :: acc) in
  Array.of_list (walk target [])

let data_of st ff =
  match Builder.node st.b ff with
  | Circuit.Dff d -> d
  | Circuit.Input | Circuit.Const _ | Circuit.Gate _ -> assert false

let add_mux st ~src ~ff =
  let d_old = data_of st ff in
  let pick = Builder.add_gate st.b Gate.And [ st.scan_mode; src ] in
  let hold = Builder.add_gate st.b Gate.And [ st.scan_mode_n; d_old ] in
  let mux = Builder.add_gate st.b Gate.Or [ pick; hold ] in
  Builder.set_dff_data st.b ~ff ~data:mux;
  st.mux_segments <- st.mux_segments + 1;
  invalidate st;
  {
    Scan.src;
    dst_ff = ff;
    path = [| pick; mux |];
    invert = false;
    via_mux = true;
  }

(* Builds the segment from [src] into [ff] over [path] (gate nets ending at
   the data net of [ff]); sensitizes every gate on the way and accumulates
   the segment parity. *)
let functional_segment st ~justify_depth ~src ~ff ~path =
  Array.iter (fun n -> st.protected <- n :: st.protected) path;
  let entering = ref src in
  let invert = ref false in
  Array.iter
    (fun gate_net ->
      sensitize_gate st ~justify_depth ~gate_net ~entering:!entering;
      if gate_parity st ~gate_net ~entering:!entering then invert := not !invert;
      entering := gate_net)
    path;
  { Scan.src; dst_ff = ff; path; invert = !invert; via_mux = false }

(* Picks the next flip-flop of the chain. Under [Greedy_functional] it is
   the remaining flip-flop whose data net is reachable from [src] at the
   lowest sensitization cost (or directly wired); under a fixed ordering
   only the head of [remaining] is considered. Paths costing more than
   [max_cost] are not worth their test points compared to a multiplexer
   and are rejected. *)
let pick_next st ~src ~remaining ~used ~max_cost ~greedy =
  let candidates =
    if greedy then remaining
    else match remaining with [] -> [] | ff :: _ -> [ ff ]
  in
  let direct = List.find_opt (fun ff -> data_of st ff = src) candidates in
  match direct with
  | Some ff -> Some (ff, [||])
  | None ->
    let prev, cost = cheapest_reach st ~src ~used in
    let best = ref None in
    List.iter
      (fun ff ->
        let d = data_of st ff in
        if prev.(d) <> -2 && d <> src && cost.(d) <= max_cost then begin
          match !best with
          | Some (_, _, c) when c <= cost.(d) -> ()
          | Some _ | None ->
            best := Some (ff, reconstruct_path prev ~target:d, cost.(d))
        end)
      candidates;
    (match !best with Some (ff, path, _) -> Some (ff, path) | None -> None)

let build_chain st ~justify_depth ~max_path_cost ~greedy ~index ~ffs ~used =
  let scan_in =
    Builder.add_input ~name:(Printf.sprintf "scan_in%d" index) st.b
  in
  invalidate st;
  st.never_constrain <- scan_in :: st.never_constrain;
  st.protected <- scan_in :: st.protected;
  let remaining = ref ffs in
  let order = ref [] in
  let segments = ref [] in
  let src = ref scan_in in
  while !remaining <> [] do
    let seg, ff =
      match pick_next st ~src:!src ~remaining:!remaining ~used
              ~max_cost:max_path_cost ~greedy
      with
      | Some (ff, [||]) ->
        ( {
            Scan.src = !src;
            dst_ff = ff;
            path = [||];
            invert = false;
            via_mux = false;
          },
          ff )
      | Some (ff, path) ->
        Array.iter (fun n -> used.(n) <- true) path;
        (functional_segment st ~justify_depth ~src:!src ~ff ~path, ff)
      | None ->
        let ff =
          match !remaining with [] -> assert false | ff :: _ -> ff
        in
        let seg = add_mux st ~src:!src ~ff in
        Array.iter (fun n -> used.(n) <- true) seg.Scan.path;
        (seg, ff)
    in
    st.protected <- ff :: st.protected;
    remaining := List.filter (fun x -> x <> ff) !remaining;
    order := ff :: !order;
    segments := seg :: !segments;
    src := ff
  done;
  let ffs_arr = Array.of_list (List.rev !order) in
  let scan_out = ffs_arr.(Array.length ffs_arr - 1) in
  {
    Scan.index;
    scan_in;
    scan_out;
    ffs = ffs_arr;
    segments = Array.of_list (List.rev !segments);
  }

let shuffle seed ffs =
  let rng = Fst_gen.Rng.create seed in
  let arr = Array.copy ffs in
  for i = Array.length arr - 1 downto 1 do
    let j = Fst_gen.Rng.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  arr

(* At most one chain per flip-flop: a larger request yields the same
   partition, so [chains] is clamped before anything is sized by it. *)
let partition_ffs dffs chains =
  let n = Array.length dffs in
  let chains = max 1 (min chains n) in
  let per = (n + chains - 1) / chains in
  List.init chains (fun k ->
      let lo = k * per in
      let hi = min n (lo + per) in
      if lo >= hi then []
      else Array.to_list (Array.sub dffs lo (hi - lo)))
  |> List.filter (fun l -> l <> [])

let insert ?(options = default_options) (c : Circuit.t) =
  if Circuit.dff_count c = 0 then
    invalid_arg "Tpi.insert: circuit has no flip-flops";
  let b = Builder.of_circuit c in
  let scan_mode = Builder.add_input ~name:"scan_mode" b in
  let scan_mode_n = Builder.add_gate ~name:"scan_mode_n" b Gate.Not [ scan_mode ] in
  let st =
    {
      b;
      scan_mode;
      scan_mode_n;
      constraints = [ (scan_mode, V3.One) ];
      never_constrain = [];
      protected = [];
      test_points = 0;
      mux_segments = 0;
      tp_cache = Hashtbl.create 16;
      values = [||];
      values_valid = false;
      fanout = [||];
      fanout_valid = false;
    }
  in
  let used = Array.make (16 * max 64 (Circuit.num_nets c)) false in
  let dffs =
    match options.ordering with
    | Greedy_functional | Natural -> c.Circuit.dffs
    | Shuffled seed -> shuffle seed c.Circuit.dffs
  in
  let greedy = options.ordering = Greedy_functional in
  let parts = partition_ffs dffs options.chains in
  let chains =
    List.mapi
      (fun index ffs ->
        build_chain st ~justify_depth:options.justify_depth
          ~max_path_cost:options.max_path_cost ~greedy ~index ~ffs ~used)
      parts
  in
  List.iter
    (fun ch ->
      if not (Array.exists (fun o -> o = ch.Scan.scan_out) c.Circuit.outputs)
      then Builder.mark_output st.b ch.Scan.scan_out)
    chains;
  let scanned = Builder.freeze st.b in
  ( scanned,
    {
      Scan.scan_mode;
      constraints = st.constraints;
      chains = Array.of_list chains;
      test_points = st.test_points;
      mux_segments = st.mux_segments;
    } )

type insert_error =
  | No_flip_flops
  | Shift_broken of Circuit.t * Scan.config * Scan.shift_error list

let insert_checked ~chains c =
  if Circuit.dff_count c = 0 then Error No_flip_flops
  else
    let scanned, config =
      insert ~options:{ default_options with chains } c
    in
    match Scan.verify_shift scanned config with
    | Ok () -> Ok (scanned, config)
    | Error errs -> Error (Shift_broken (scanned, config, errs))

let insert_error_message = function
  | No_flip_flops -> "circuit has no flip-flops: nothing to scan"
  | Shift_broken (scanned, _, errs) ->
    String.concat "; " (List.map (Scan.shift_error_message scanned) errs)

type overhead = {
  extra_gates : int;
  dedicated_routes : int;
  functional_segments : int;
}

let overhead (scanned : Circuit.t) (config : Scan.config) ~(before : Circuit.t)
    =
  let functional_segments =
    Array.fold_left
      (fun acc ch ->
        Array.fold_left
          (fun acc (s : Scan.segment) -> if s.Scan.via_mux then acc else acc + 1)
          acc ch.Scan.segments)
      0 config.Scan.chains
  in
  {
    extra_gates = Circuit.gate_count scanned - Circuit.gate_count before;
    dedicated_routes = config.Scan.mux_segments;
    functional_segments;
  }

let full_scan ?(chains = 1) (c : Circuit.t) =
  if Circuit.dff_count c = 0 then
    invalid_arg "Tpi.full_scan: circuit has no flip-flops";
  let b = Builder.of_circuit c in
  let scan_mode = Builder.add_input ~name:"scan_mode" b in
  let scan_mode_n = Builder.add_gate ~name:"scan_mode_n" b Gate.Not [ scan_mode ] in
  let st =
    {
      b;
      scan_mode;
      scan_mode_n;
      constraints = [ (scan_mode, V3.One) ];
      never_constrain = [];
      protected = [];
      test_points = 0;
      mux_segments = 0;
      tp_cache = Hashtbl.create 16;
      values = [||];
      values_valid = false;
      fanout = [||];
      fanout_valid = false;
    }
  in
  let parts = partition_ffs c.Circuit.dffs chains in
  let chains =
    List.mapi
      (fun index ffs ->
        let scan_in =
          Builder.add_input ~name:(Printf.sprintf "scan_in%d" index) st.b
        in
        let segments = ref [] and src = ref scan_in in
        List.iter
          (fun ff ->
            segments := add_mux st ~src:!src ~ff :: !segments;
            src := ff)
          ffs;
        let ffs_arr = Array.of_list ffs in
        {
          Scan.index;
          scan_in;
          scan_out = ffs_arr.(Array.length ffs_arr - 1);
          ffs = ffs_arr;
          segments = Array.of_list (List.rev !segments);
        })
      parts
  in
  List.iter
    (fun ch ->
      if not (Array.exists (fun o -> o = ch.Scan.scan_out) c.Circuit.outputs)
      then Builder.mark_output st.b ch.Scan.scan_out)
    chains;
  let scanned = Builder.freeze st.b in
  ( scanned,
    {
      Scan.scan_mode;
      constraints = st.constraints;
      chains = Array.of_list chains;
      test_points = 0;
      mux_segments = st.mux_segments;
    } )
