open Fst_logic
open Fst_netlist
open Fst_sim
open Fst_fsim
open Fst_tpi

type behavior = Stuck of bool | Inverted | Skip of { count : int; invert : bool }
type hypothesis = { chain : int; segment : int; behavior : behavior }
type verdict = { hypothesis : hypothesis; mismatches : int; explained : int }

let pp_behavior ppf = function
  | Stuck v -> Fmt.pf ppf "stuck-%d" (if v then 1 else 0)
  | Inverted -> Fmt.string ppf "inverted"
  | Skip { count; invert } ->
    Fmt.pf ppf "skip-%d%s" count (if invert then " (inverting)" else "")

let pp_verdict ppf v =
  Fmt.pf ppf "chain %d segment %d %a (%d mismatches, %d explained)"
    v.hypothesis.chain v.hypothesis.segment pp_behavior v.hypothesis.behavior
    v.mismatches v.explained

(* The shift pattern between captures: a walking one, then alternating. *)
let shift_pattern ~len t =
  let t = t mod ((2 * len) + 8) in
  if t = 0 then V3.One
  else if t < len then V3.Zero
  else V3.of_bool ((t - len) / 2 mod 2 = 1)

(* Scan-out alone cannot localize a stuck chain (every stuck position
   yields the same constant stream once the unknown power-up state has
   flushed), so the diagnostic sequence interleaves functional capture
   cycles: the flip-flops behind the break capture system data and unload
   it through the fault-free chain suffix, and the number of clean cycles
   after each capture reveals the break position. *)
type plan = { stim : Fsim.stimulus; captures : bool array }

let build_plan c config =
  let len = Sequences.max_chain_length config in
  let period = (2 * len) + 8 in
  let rounds = 4 in
  let total = rounds * (period + 1) in
  let captures = Array.make total false in
  (* Free inputs are pinned to a per-round pattern so the functional data
     captured between shift rounds is deterministic and diverse. *)
  let free_pis =
    Array.to_list c.Fst_netlist.Circuit.inputs
    |> List.filter (fun i ->
           (not (List.mem_assoc i config.Scan.constraints))
           && (not (Array.exists (fun ch -> ch.Scan.scan_in = i) config.Scan.chains))
           && i <> config.Scan.scan_mode)
  in
  let pinned round =
    List.mapi
      (fun k i ->
        let v =
          match round mod 4 with
          | 0 -> false
          | 1 -> true
          | 2 -> k land 1 = 0
          | _ -> k land 1 = 1
        in
        (i, V3.of_bool v))
      free_pis
  in
  let stim =
    Array.init total (fun t ->
        let round = t / (period + 1) in
        let in_round = t mod (period + 1) in
        let base =
          (if t = 0 then config.Scan.constraints else [])
          @ (if in_round = 0 then pinned round else [])
        in
        if in_round = period && t <> total - 1 then begin
          (* one functional capture cycle *)
          captures.(t) <- true;
          base @ [ (config.Scan.scan_mode, V3.Zero) ]
        end
        else
          base
          @ [ (config.Scan.scan_mode, V3.One) ]
          @ (Array.to_list config.Scan.chains
            |> List.map (fun ch -> (ch.Scan.scan_in, shift_pattern ~len in_round))))
  in
  { stim; captures }

let stimulus c config = (build_plan c config).stim

let observe_scan_outs c config ~fault stim =
  let outs = Array.map (fun ch -> ch.Scan.scan_out) config.Scan.chains in
  let rows = Fsim.Serial.trace c ~fault ~observe:outs stim in
  Array.init (Array.length outs) (fun k -> Array.map (fun row -> row.(k)) rows)

(* Per-chain good-machine reference: position values at every cycle. *)
let good_positions c (ch : Scan.chain) stim =
  let rows = Fsim.Serial.trace c ~fault:None ~observe:ch.Scan.ffs stim in
  Array.init (Array.length ch.Scan.ffs) (fun p ->
      Array.map (fun row -> row.(p)) rows)

let stream_of (ch : Scan.chain) stim =
  let current = ref V3.X in
  Array.map
    (fun assigns ->
      (match List.assoc_opt ch.Scan.scan_in assigns with
       | Some v -> current := v
       | None -> ());
      !current)
    stim

let apply_parity v invert = if invert then V3.bnot v else v

(* Predicted faulty scan-out under one hypothesis. Positions before the
   faulty segment equal the good machine; positions from it onward are
   recomputed: shifts go through the defective segment model, and capture
   cycles re-evaluate the actual functional logic over the hybrid state
   ([capture_row], good prefix + modeled faulty suffix), so the post-
   capture unload carries an exact positional signature. *)
let predict (ch : Scan.chain) ~plan ~good ~stream ~capture_row ~hypothesis =
  let len = Array.length ch.Scan.ffs in
  let seg_invert s = ch.Scan.segments.(s).Scan.invert in
  let p0 = hypothesis.segment in
  let state = Array.make len V3.X in
  (* [state.(q)] is meaningful for q >= p0 only; earlier positions read
     from the good-machine trace. *)
  let value_at q t = if q < p0 then good.(q).(t) else state.(q) in
  Array.mapi
    (fun t _ ->
      let out = if len - 1 < p0 then good.(len - 1).(t) else state.(len - 1) in
      let next =
        if plan.captures.(t) then begin
          (* capture cycle: evaluate the functional logic with the current
             hybrid state. At the defect position an output-stuck defect
             pins the capture as well; path defects leave it intact. *)
          let captured = capture_row ~t ~state ~p0 in
          Array.init len (fun q ->
              if q < p0 then V3.X
              else if q = p0 then (
                match hypothesis.behavior with
                | Stuck v -> V3.of_bool v
                | Inverted | Skip _ -> captured q)
              else captured q)
        end
        else
          Array.init len (fun q ->
              if q < p0 then V3.X (* unused *)
              else if q > p0 then
                apply_parity (value_at (q - 1) t) (seg_invert q)
              else (
                (* the defective segment *)
                let src = if p0 = 0 then stream.(t) else value_at (p0 - 1) t in
                match hypothesis.behavior with
                | Stuck v -> V3.of_bool v
                | Inverted -> V3.bnot (apply_parity src (seg_invert p0))
                | Skip { count; invert } ->
                  let j = p0 - 1 - count in
                  let far = if j >= 0 then value_at j t else stream.(t) in
                  apply_parity far invert))
      in
      Array.blit next 0 state 0 len;
      out)
    stream

let score ~predicted ~observed =
  let mismatches = ref 0 and explained = ref 0 in
  Array.iteri
    (fun t p ->
      let o = observed.(t) in
      if V3.is_binary p && V3.is_binary o then
        if V3.equal p o then incr explained else incr mismatches)
    predicted;
  (!mismatches, !explained)

let skip_counts = [ 1; 2; 3; 4; 8; 16 ]

let hypotheses_for (ch : Scan.chain) =
  let len = Array.length ch.Scan.ffs in
  List.concat
    (List.init len (fun segment ->
         let base =
           [
             { chain = ch.Scan.index; segment; behavior = Stuck false };
             { chain = ch.Scan.index; segment; behavior = Stuck true };
             { chain = ch.Scan.index; segment; behavior = Inverted };
           ]
         in
         let skips =
           List.concat_map
             (fun count ->
               if count <= segment then
                 [
                   { chain = ch.Scan.index; segment;
                     behavior = Skip { count; invert = false } };
                   { chain = ch.Scan.index; segment;
                     behavior = Skip { count; invert = true } };
                 ]
               else [])
             skip_counts
         in
         base @ skips))

(* The good machine's full value vector at every capture cycle (after the
   settle, before the clock edge); an empty vector at the other cycles. *)
let capture_rows (cc : Compiled.t) plan =
  let cstim = Compiled.compile_stim cc plan.stim in
  let v = Compiled.make_vec cc in
  let latch = Bytes.create (max 1 cc.Compiled.n_ffs) in
  Array.mapi
    (fun t assigns ->
      Compiled.apply v assigns;
      Compiled.eval cc v;
      let row = if plan.captures.(t) then Bytes.copy v else Bytes.empty in
      Compiled.clock cc v latch;
      row)
    cstim

let diagnose_with_plan c config ~plan ~observed =
  let verdicts = ref [] in
  let cc = Compiled.of_circuit c in
  let slot n = cc.Compiled.perm.(n) in
  let rows = capture_rows cc plan in
  let hybrid = Compiled.make_vec cc in
  Array.iteri
    (fun k ch ->
      let stream = stream_of ch plan.stim in
      let good = good_positions c ch plan.stim in
      let len = Array.length ch.Scan.ffs in
      let data_net_of q =
        match Circuit.node c ch.Scan.ffs.(q) with
        | Circuit.Dff d -> d
        | Circuit.Input | Circuit.Const _ | Circuit.Gate _ -> assert false
      in
      (* Functional capture over the hybrid state: inputs and flip-flops
         outside the hypothesis region take their good-machine values;
         positions from [p0] on take the modeled faulty values. *)
      let capture_row ~t ~state ~p0 =
        Bytes.blit rows.(t) 0 hybrid 0 (Bytes.length hybrid);
        Array.iteri
          (fun q ff ->
            if q >= p0 then Compiled.set hybrid (slot ff) (V3b.of_v3 state.(q)))
          ch.Scan.ffs;
        Compiled.eval cc hybrid;
        fun q -> V3b.to_v3 (Compiled.get hybrid (slot (data_net_of q)))
      in
      let healthy = Array.mapi (fun t _ -> good.(len - 1).(t)) stream in
      let mism, _ = score ~predicted:healthy ~observed:observed.(k) in
      if mism > 0 then
        List.iter
          (fun h ->
            let predicted =
              predict ch ~plan ~good ~stream ~capture_row ~hypothesis:h
            in
            let mismatches, explained =
              score ~predicted ~observed:observed.(k)
            in
            verdicts := { hypothesis = h; mismatches; explained } :: !verdicts)
          (hypotheses_for ch))
    config.Scan.chains;
  List.sort
    (fun a b ->
      match Int.compare a.mismatches b.mismatches with
      | 0 -> Int.compare b.explained a.explained
      | c -> c)
    !verdicts

let diagnose c config ~stimulus ~observed =
  (* Reconstruct the capture set from the stimulus: cycles that drive
     scan-enable low. *)
  let captures =
    Array.map
      (fun assigns ->
        match List.assoc_opt config.Scan.scan_mode assigns with
        | Some V3.Zero -> true
        | Some (V3.One | V3.X) | None -> false)
      stimulus
  in
  diagnose_with_plan c config ~plan:{ stim = stimulus; captures } ~observed

let diagnose_fault c config fault =
  let plan = build_plan c config in
  let observed = observe_scan_outs c config ~fault:(Some fault) plan.stim in
  diagnose_with_plan c config ~plan ~observed
