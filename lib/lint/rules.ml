open Fst_logic
open Fst_netlist
open Fst_tpi
module D = Diagnostic

type limits = {
  max_segment_delay : int;
  delay_model : Timing.model;
  cc_limit : int;
  obs_limit : int;
  max_testability_reports : int;
}

let default_limits =
  {
    max_segment_delay = 24;
    delay_model = Timing.unit_model;
    cc_limit = Fst_testability.Scoap.infinite;
    obs_limit = Fst_testability.Scoap.infinite;
    max_testability_reports = 10;
  }

(* Shared context: the circuit plus the optional source-location table
   threaded from [Netfile.parse_*_loc]. *)
type ctx = { c : Circuit.t; lines : int array option; file : string option }

let ctx ?lines ?file c = { c; lines; file }

let at ctx net = D.at ?lines:ctx.lines ?file:ctx.file ctx.c net

let error ctx ~rule ?chain ?segment net fmt =
  Printf.ksprintf
    (fun message ->
      let loc = { (at ctx net) with D.chain; D.segment } in
      D.make ~rule ~severity:D.Error ~loc message)
    fmt

let warning ctx ~rule ?chain ?segment net fmt =
  Printf.ksprintf
    (fun message ->
      let loc = { (at ctx net) with D.chain; D.segment } in
      D.make ~rule ~severity:D.Warning ~loc message)
    fmt

let info ctx ~rule ?chain ?segment net fmt =
  Printf.ksprintf
    (fun message ->
      let loc = { (at ctx net) with D.chain; D.segment } in
      D.make ~rule ~severity:D.Info ~loc message)
    fmt

let name ctx n = Circuit.net_name ctx.c n

(* --- structural DRC ----------------------------------------------------- *)

(* Rules on the elaborated circuit: explicit X sources, dead logic, unused
   primary inputs, flip-flops latched onto themselves. Duplicate
   definitions and combinational cycles can only exist pre-elaboration and
   are covered by [raw_structural]. *)
let structural ctx =
  let c = ctx.c in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let n = Circuit.num_nets c in
  for i = 0 to n - 1 do
    let dead = Array.length c.Circuit.fanout.(i) = 0 && not (Circuit.is_output c i) in
    match Circuit.node c i with
    | Circuit.Const V3.X ->
      add
        (warning ctx ~rule:"W-NET-CONSTX" i
           "net %S is tied to an explicit unknown (CONSTX): every reader \
            sees X in scan mode"
           (name ctx i))
    | Circuit.Const _ when dead ->
      add
        (warning ctx ~rule:"W-NET-DEAD" i
           "constant %S drives nothing and is not a primary output"
           (name ctx i))
    | Circuit.Gate _ when dead ->
      add
        (warning ctx ~rule:"W-NET-DEAD" i
           "gate %S drives nothing and is not a primary output" (name ctx i))
    | Circuit.Dff d ->
      if dead then
        add
          (warning ctx ~rule:"W-NET-DEAD" i
             "flip-flop %S drives nothing and is not a primary output"
             (name ctx i));
      if d = i then
        add
          (warning ctx ~rule:"W-NET-FF-SELFLOOP" i
             "flip-flop %S feeds back onto its own data pin with no logic \
              in between: it can never change state"
             (name ctx i))
    | Circuit.Input ->
      if dead then
        add
          (warning ctx ~rule:"W-NET-UNUSED-PI" i
             "primary input %S is never read" (name ctx i))
    | Circuit.Const _ | Circuit.Gate _ -> ()
  done;
  !diags

(* Rules only expressible on a raw (pre-elaboration) node table: every
   duplicate definition with both source lines, and every combinational
   cycle with its path — where [Circuit.make] aborts on the first. *)
let raw_structural (raw : Netfile.raw) =
  let nm i = raw.Netfile.raw_net_names.(i) in
  let line_of i =
    if raw.Netfile.raw_lines.(i) > 0 then Some raw.Netfile.raw_lines.(i)
    else None
  in
  let dups =
    List.map
      (fun (net, first, dup) ->
        let loc =
          { D.no_loc with D.file = raw.Netfile.raw_file; line = Some dup }
        in
        D.make ~rule:"E-NET-DUP" ~severity:D.Error ~loc
          (Printf.sprintf "net %S defined twice (first defined at line %d)"
             net first))
      raw.Netfile.raw_dups
  in
  let cycles =
    List.map
      (fun cycle ->
        let head = List.hd cycle in
        let loc =
          {
            D.no_loc with
            D.file = raw.Netfile.raw_file;
            line = line_of head;
            net = Some head;
            net_name = Some (nm head);
          }
        in
        let path = List.map nm cycle in
        D.make ~rule:"E-NET-CYCLE" ~severity:D.Error ~loc
          (Printf.sprintf "combinational cycle: %s"
             (String.concat " -> " (path @ [ List.hd path ]))))
      (Circuit.combinational_cycles raw.Netfile.raw_nodes)
  in
  dups @ cycles

(* --- scan-DFT rules ------------------------------------------------------ *)

let non_controlling g =
  match Gate.controlling g with
  | Some ctrl -> Some (V3.bnot ctrl)
  | None -> None

(* Static re-derivation of a segment's inversion parity from the gate types
   and the binary xor-family side values; [None] when an X side value (or a
   non-gate path net) makes the parity underivable. *)
let static_parity c vals (seg : Scan.segment) =
  let inv = ref false in
  let derivable = ref true in
  let entering = ref seg.Scan.src in
  Array.iter
    (fun gnet ->
      (match Circuit.node c gnet with
       | Circuit.Gate (g, fi) ->
         if Gate.inverting g then inv := not !inv;
         (match g with
          | Gate.Xor | Gate.Xnor ->
            Array.iter
              (fun f ->
                if f <> !entering then
                  match vals.(f) with
                  | V3.One -> inv := not !inv
                  | V3.Zero -> ()
                  | V3.X -> derivable := false)
              fi
          | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
            Array.iter
              (fun f ->
                if f <> !entering then
                  match non_controlling g with
                  | Some nc when not (V3.equal vals.(f) nc) ->
                    derivable := false
                  | Some _ | None -> ())
              fi
          | Gate.Not | Gate.Buf -> ())
       | Circuit.Input | Circuit.Const _ | Circuit.Dff _ ->
         derivable := false);
      entering := gnet)
    seg.Scan.path;
  if !derivable then Some !inv else None

(* Structural validity of one segment: the recorded path must be a
   connected combinational route from [src] to the data pin of [dst_ff].
   Returns [false] when broken, so dependent rules can skip the segment. *)
let check_path ctx ~chain ~segment (seg : Scan.segment) add =
  let c = ctx.c in
  match Circuit.node c seg.Scan.dst_ff with
  | Circuit.Input | Circuit.Const _ | Circuit.Gate _ ->
    add
      (error ctx ~rule:"E-SCAN-SHAPE" ~chain ~segment seg.Scan.dst_ff
         "segment destination %S is not a flip-flop" (name ctx seg.Scan.dst_ff));
    false
  | Circuit.Dff data ->
    let ok = ref true in
    let entering = ref seg.Scan.src in
    Array.iter
      (fun gnet ->
        if !ok then begin
          (match Circuit.node c gnet with
           | Circuit.Gate (_, fi) when Array.exists (fun f -> f = !entering) fi ->
             ()
           | Circuit.Gate _ ->
             add
               (error ctx ~rule:"E-SCAN-PATH" ~chain ~segment gnet
                  "path net %S does not read the previous path net %S"
                  (name ctx gnet) (name ctx !entering));
             ok := false
           | Circuit.Input | Circuit.Const _ | Circuit.Dff _ ->
             add
               (error ctx ~rule:"E-SCAN-PATH" ~chain ~segment gnet
                  "path net %S is not a logic gate" (name ctx gnet));
             ok := false);
          entering := gnet
        end)
      seg.Scan.path;
    if !ok && !entering <> data then begin
      add
        (error ctx ~rule:"E-SCAN-PATH" ~chain ~segment seg.Scan.dst_ff
           "segment route ends at %S but the data pin of flip-flop %S reads \
            %S"
           (name ctx !entering)
           (name ctx seg.Scan.dst_ff)
           (name ctx data));
      ok := false
    end;
    !ok

(* Forward structural cone of a net: every net a change could reach,
   crossing gates and flip-flops (the steady-state view that classification
   uses). *)
let forward_cone c start =
  let n = Circuit.num_nets c in
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(start) <- true;
  Queue.add start queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun consumer ->
        if not seen.(consumer) then begin
          seen.(consumer) <- true;
          Queue.add consumer queue
        end)
      c.Circuit.fanout.(v)
  done;
  seen

(* Combinational depth (in logic levels) of every net in the scan-enable's
   fanout cone; [-1] outside. Propagation stops at flip-flops: past a
   register the signal is state, not combinational scan control. The
   inserted idioms put the scan-enable at most two levels from a side pin
   (test point through the scan-enable inverter, the hold leg of a scan
   multiplexer); anything deeper means mission logic mixes scan control
   into the chain data path. *)
let se_depths c se =
  let n = Circuit.num_nets c in
  let depth = Array.make n (-1) in
  depth.(se) <- 0;
  let queue = Queue.create () in
  Queue.add se queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun consumer ->
        if depth.(consumer) = -1 then
          match Circuit.node c consumer with
          | Circuit.Gate _ ->
            depth.(consumer) <- depth.(v) + 1;
            Queue.add consumer queue
          | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> ())
      c.Circuit.fanout.(v)
  done;
  depth

let scan ctx ~limits (config : Scan.config) =
  let c = ctx.c in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let constrained n = List.mem_assoc n config.Scan.constraints in
  (* Scan-enable must exist as a primary input held at 1. *)
  (match Circuit.node c config.Scan.scan_mode with
   | Circuit.Input -> ()
   | _ ->
     add
       (error ctx ~rule:"E-SCAN-MODE" config.Scan.scan_mode
          "scan-enable %S is not a primary input"
          (name ctx config.Scan.scan_mode)));
  (match List.assoc_opt config.Scan.scan_mode config.Scan.constraints with
   | Some V3.One -> ()
   | Some v ->
     add
       (error ctx ~rule:"E-SCAN-MODE" config.Scan.scan_mode
          "scan-enable %S is constrained to %c, not 1, in scan mode"
          (name ctx config.Scan.scan_mode) (V3.to_char v))
   | None ->
     add
       (error ctx ~rule:"E-SCAN-MODE" config.Scan.scan_mode
          "scan-mode constraints do not pin scan-enable %S to 1"
          (name ctx config.Scan.scan_mode)));
  let vals = Scan.scan_mode_values c config in
  (* Chain membership: every flip-flop on at most one chain position; the
     ones on none are invisible to the chain test. *)
  let membership = Hashtbl.create 64 in
  Array.iter
    (fun ch ->
      Array.iteri
        (fun p ff ->
          Hashtbl.replace membership ff
            ((ch.Scan.index, p)
             :: (try Hashtbl.find membership ff with Not_found -> [])))
        ch.Scan.ffs)
    config.Scan.chains;
  Hashtbl.fold (fun ff locs acc -> (ff, List.rev locs) :: acc) membership []
  |> List.sort Stdlib.compare
  |> List.iter (fun (ff, locs) ->
         match locs with
         | _ :: _ :: _ ->
           let render (ci, p) = Printf.sprintf "chain %d position %d" ci p in
           add
             (error ctx ~rule:"E-SCAN-DUP-FF" ff
                "flip-flop %S sits on %d chain positions (%s)" (name ctx ff)
                (List.length locs)
                (String.concat ", " (List.map render locs)))
         | [] | [ _ ] -> ());
  Array.iter
    (fun ff ->
      if not (Hashtbl.mem membership ff) then
        add
          (warning ctx ~rule:"W-SCAN-NOCHAIN" ff
             "flip-flop %S is on no scan chain: it is neither loadable nor \
              observable through the chain test"
             (name ctx ff)))
    c.Circuit.dffs;
  (* Per-chain shape, then per-segment rules. *)
  Array.iter
    (fun ch ->
      let chain = ch.Scan.index in
      let len = Array.length ch.Scan.ffs in
      (match Circuit.node c ch.Scan.scan_in with
       | Circuit.Input ->
         if constrained ch.Scan.scan_in then
           add
             (error ctx ~rule:"E-SCAN-SI" ~chain ch.Scan.scan_in
                "scan-in %S is constrained to a constant in scan mode: the \
                 chain cannot be loaded"
                (name ctx ch.Scan.scan_in))
       | _ ->
         add
           (error ctx ~rule:"E-SCAN-SI" ~chain ch.Scan.scan_in
              "scan-in %S is not a primary input" (name ctx ch.Scan.scan_in)));
      if len = 0 then
        add
          (error ctx ~rule:"E-SCAN-SHAPE" ~chain ch.Scan.scan_in
             "chain %d has no flip-flops" chain)
      else begin
        if ch.Scan.scan_out <> ch.Scan.ffs.(len - 1) then
          add
            (error ctx ~rule:"E-SCAN-SO" ~chain ch.Scan.scan_out
               "scan-out %S is not the last flip-flop of chain %d (%S)"
               (name ctx ch.Scan.scan_out)
               chain
               (name ctx ch.Scan.ffs.(len - 1)));
        if not (Circuit.is_output c ch.Scan.scan_out) then
          add
            (error ctx ~rule:"E-SCAN-SO" ~chain ch.Scan.scan_out
               "scan-out %S of chain %d is not a primary output: the loaded \
                response cannot be observed"
               (name ctx ch.Scan.scan_out)
               chain)
      end;
      if Array.length ch.Scan.segments <> len then
        add
          (error ctx ~rule:"E-SCAN-SHAPE" ~chain ch.Scan.scan_in
             "chain %d has %d flip-flops but %d segments" chain len
             (Array.length ch.Scan.segments))
      else
        Array.iteri
          (fun s (seg : Scan.segment) ->
            let segment = s in
            let expected_src =
              if s = 0 then ch.Scan.scan_in else ch.Scan.ffs.(s - 1)
            in
            if seg.Scan.src <> expected_src then
              add
                (error ctx ~rule:"E-SCAN-SHAPE" ~chain ~segment seg.Scan.src
                   "segment %d of chain %d starts at %S, expected %S" s chain
                   (name ctx seg.Scan.src) (name ctx expected_src));
            if seg.Scan.dst_ff <> ch.Scan.ffs.(s) then
              add
                (error ctx ~rule:"E-SCAN-SHAPE" ~chain ~segment seg.Scan.dst_ff
                   "segment %d of chain %d loads %S, expected %S" s chain
                   (name ctx seg.Scan.dst_ff)
                   (name ctx ch.Scan.ffs.(s)))
            else if check_path ctx ~chain ~segment seg add then begin
              (* The static complement of [Scan.verify_shift]: every side
                 input along the route must be provably non-controlling
                 under the scan-mode constants. *)
              let sens_ok = ref true in
              List.iter
                (fun (node, pin, side) ->
                  match Circuit.node c node with
                  | Circuit.Gate (g, _) ->
                    let v = vals.(side) in
                    let bad_req =
                      match non_controlling g with
                      | Some nc ->
                        if V3.equal v nc then None
                        else Some (Printf.sprintf "%c" (V3.to_char nc))
                      | None ->
                        (match g with
                         | Gate.Xor | Gate.Xnor ->
                           if V3.is_binary v then None
                           else Some "a binary value"
                         | _ -> None)
                    in
                    (match bad_req with
                     | None -> ()
                     | Some need ->
                       sens_ok := false;
                       add
                         (error ctx ~rule:"E-SCAN-SENS" ~chain ~segment side
                            "side input %S (pin %d of %s %S) is %c under \
                             scan-mode constants; a sensitized shift path \
                             needs %s"
                            (name ctx side) pin
                            (Gate.to_string g) (name ctx node)
                            (V3.to_char v) need))
                  | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> ())
                (Scan.side_pins c config ~chain ~segment);
              (* Parity: the recorded inversion flag must match the one
                 re-derived from gate types and xor side constants —
                 [Scan.scan_in_stream] and classification both trust it. *)
              (if !sens_ok then
                 match static_parity c vals seg with
                 | Some inv when inv <> seg.Scan.invert ->
                   add
                     (error ctx ~rule:"E-SCAN-PARITY" ~chain ~segment
                        seg.Scan.dst_ff
                        "segment %d of chain %d records invert=%b but the \
                         path re-derives invert=%b"
                        s chain seg.Scan.invert inv)
                 | Some _ | None -> ());
              (* Shift-speed lint: a long combinational route between two
                 chain flip-flops limits scan clocking. *)
              let delay =
                Array.fold_left
                  (fun acc gnet ->
                    match Circuit.node c gnet with
                    | Circuit.Gate (g, _) ->
                      acc + limits.delay_model.Timing.gate_delay g
                    | _ -> acc)
                  0 seg.Scan.path
              in
              if delay > limits.max_segment_delay then
                add
                  (warning ctx ~rule:"W-SCAN-DEPTH" ~chain ~segment
                     seg.Scan.dst_ff
                     "segment %d of chain %d crosses %d gates (delay %d > \
                      limit %d): the shift path limits scan clock speed"
                     s chain
                     (Array.length seg.Scan.path)
                     delay limits.max_segment_delay)
            end)
          ch.Scan.segments)
    config.Scan.chains;
  (* Scan-enable mixed into chain data: a side pin fed by the scan-enable
     through two or more logic levels is mission logic, not an inserted
     test point. *)
  let depth = se_depths c config.Scan.scan_mode in
  (* X sources with a structural cone reaching a segment's side pins: the
     category-2 hotspot prediction. A fault in such a cone can re-open the
     blocked X path, which is exactly how classification finds hard
     faults. *)
  let scan_ins =
    Array.fold_left
      (fun acc ch -> ch.Scan.scan_in :: acc)
      [ config.Scan.scan_mode ] config.Scan.chains
  in
  let x_sources =
    let acc = ref [] in
    for i = Circuit.num_nets c - 1 downto 0 do
      (match Circuit.node c i with
       | Circuit.Const V3.X -> acc := (i, "CONSTX") :: !acc
       | Circuit.Input
         when (not (constrained i)) && not (List.mem i scan_ins) ->
         acc := (i, "free input") :: !acc
       | Circuit.Dff _ when not (Hashtbl.mem membership i) ->
         acc := (i, "unscanned flip-flop") :: !acc
       | _ -> ())
    done;
    !acc
  in
  let seg_hits = Hashtbl.create 64 in
  List.iter
    (fun (src, kind) ->
      let cone = forward_cone c src in
      Array.iter
        (fun ch ->
          Array.iteri
            (fun s _ ->
              let sides =
                Scan.side_pins c config ~chain:ch.Scan.index ~segment:s
              in
              if List.exists (fun (_, _, side) -> cone.(side)) sides then
                let key = (ch.Scan.index, s) in
                Hashtbl.replace seg_hits key
                  ((src, kind)
                   :: (try Hashtbl.find seg_hits key with Not_found -> [])))
            ch.Scan.segments)
        config.Scan.chains)
    x_sources;
  Array.iter
    (fun ch ->
      Array.iteri
        (fun s (seg : Scan.segment) ->
          let chain = ch.Scan.index in
          List.iter
            (fun (node, _pin, side) ->
              if depth.(side) >= 3 then
                add
                  (warning ctx ~rule:"W-SCAN-SE-DATA" ~chain ~segment:s side
                     "scan-enable reaches side input %S of %S through %d \
                      logic levels: mission logic mixes scan control into \
                      the chain data path"
                     (name ctx side) (name ctx node) depth.(side)))
            (Scan.side_pins c config ~chain ~segment:s);
          match Hashtbl.find_opt seg_hits (chain, s) with
          | None -> ()
          | Some hits ->
            let hits = List.sort Stdlib.compare (List.rev hits) in
            let show (src, kind) =
              Printf.sprintf "%s %S" kind (name ctx src)
            in
            let shown = List.filteri (fun i _ -> i < 3) hits in
            let suffix =
              if List.length hits > 3 then
                Printf.sprintf " and %d more" (List.length hits - 3)
              else ""
            in
            add
              (warning ctx ~rule:"W-SCAN-X" ~chain ~segment:s
                 seg.Scan.dst_ff
                 "%d X-source(s) structurally reach the side inputs of \
                  segment %d of chain %d (%s%s): category-2 hotspot — a \
                  fault in these cones can feed X into the shift path"
                 (List.length hits) s chain
                 (String.concat ", " (List.map show shown))
                 suffix))
        ch.Scan.segments)
    config.Scan.chains;
  !diags

(* --- static-analysis lint ------------------------------------------------ *)

(* Findings of the phase-0 static analysis ({!Fst_sca.Sca}) under the
   scan-mode constants: gate nets proven constant (the downstream logic
   never sees them toggle) and collapsed faults with machine-checked
   untestability proofs (patterns targeting them are redundant). Both are
   capped like the testability rules, with an overflow summary line. *)
let sca ctx ~limits (config : Scan.config) =
  let module Sca = Fst_sca.Sca in
  let module Fault = Fst_fault.Fault in
  let c = ctx.c in
  let view = View.scan_mode c ~constraints:config.Scan.constraints in
  let faults = Fault.collapse c (Fault.universe c) in
  let t = Sca.analyze view ~faults in
  let cap = limits.max_testability_reports in
  let capped ~rule ~severity ~more all =
    let shown = List.filteri (fun k _ -> k < cap) all in
    if List.length all > cap then
      shown
      @ [
          D.make ~rule ~severity
            (Printf.sprintf "...and %d more %s" (List.length all - cap) more);
        ]
    else shown
  in
  let reason_text = function
    | Some Sca.Tied -> "tied source"
    | Some (Sca.Forward n) ->
      Printf.sprintf "implied by the fanins of %S" (name ctx n)
    | Some (Sca.Backward { node; pin }) ->
      Printf.sprintf "justified from the output of %S (pin %d)"
        (name ctx node) pin
    | Some (Sca.Learned n) ->
      Printf.sprintf "common consequence of every justification of %S"
        (name ctx n)
    | Some Sca.Assumed | None -> "constant propagation"
  in
  let consts = ref [] in
  for i = Circuit.num_nets c - 1 downto 0 do
    match Circuit.node c i with
    | Circuit.Gate _ when V3.is_binary t.Sca.base.(i) ->
      consts :=
        info ctx ~rule:"I-CONST-NET" i
          "gate net %S is constant %c under the scan-mode constants (%s)"
          (name ctx i)
          (V3.to_char t.Sca.base.(i))
          (reason_text t.Sca.base_reason.(i))
        :: !consts
    | Circuit.Gate _ | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> ()
  done;
  let proof_text = function
    | Sca.Unexcitable -> "unexcitable: the site cannot take the opposite value"
    | Sca.Unobservable blockers ->
      Printf.sprintf
        "unobservable: every propagation path crosses one of %d blocked \
         gate(s)"
        (List.length blockers)
    | Sca.Fire { m; _ } ->
      Printf.sprintf "detection is blocked under both values of net %S"
        (name ctx m)
    | Sca.Requires { net; value; _ } ->
      Printf.sprintf "detection requires %S = %c, which is refuted"
        (name ctx net) (V3.to_char value)
    | Sca.Dominated f ->
      Printf.sprintf "dominated by proven-untestable %s" (Fault.to_string c f)
  in
  let redundant =
    List.map
      (fun (u : Sca.untestable) ->
        warning ctx ~rule:"W-TEST-REDUNDANT"
          (Fault.site_net c u.Sca.fault)
          "fault %s is statically proven untestable (%s); test patterns \
           targeting it are redundant"
          (Fault.to_string c u.Sca.fault)
          (proof_text u.Sca.proof))
      t.Sca.untestable
  in
  capped ~rule:"W-TEST-REDUNDANT" ~severity:D.Warning
    ~more:"statically untestable faults" redundant
  @ capped ~rule:"I-CONST-NET" ~severity:D.Info ~more:"constant gate nets"
      !consts

(* --- testability lint ---------------------------------------------------- *)

(* SCOAP thresholds over the unconstrained combinational view (all primary
   inputs and flip-flop outputs free): flags regions that are intrinsically
   hard to control or observe, independent of any scan configuration. *)
let testability ctx ~limits =
  let c = ctx.c in
  let view = View.scan_mode c ~constraints:[] in
  let scoap = Fst_testability.Scoap.compute view in
  let gates = ref [] in
  for i = Circuit.num_nets c - 1 downto 0 do
    match Circuit.node c i with
    | Circuit.Gate _ -> gates := i :: !gates
    | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> ()
  done;
  let open Fst_testability in
  let flag ~rule ~measure ~limit ~describe =
    let bad =
      List.filter_map
        (fun i ->
          let m = measure i in
          if m >= limit then Some (i, m) else None)
        !gates
      |> List.sort (fun (i, m) (j, m') ->
             if m <> m' then Stdlib.compare m' m else Stdlib.compare i j)
    in
    let cap = limits.max_testability_reports in
    let shown = List.filteri (fun k _ -> k < cap) bad in
    let out =
      List.map (fun (i, m) -> warning ctx ~rule i "%s" (describe i m)) shown
    in
    if List.length bad > cap then
      out
      @ [
          D.make ~rule ~severity:D.Warning
            (Printf.sprintf "...and %d more nets at or above the threshold"
               (List.length bad - cap));
        ]
    else out
  in
  let show_cost m =
    if m >= Scoap.infinite then "unreachable" else string_of_int m
  in
  flag ~rule:"W-TEST-CC"
    ~measure:(fun i -> max scoap.Scoap.cc0.(i) scoap.Scoap.cc1.(i))
    ~limit:limits.cc_limit
    ~describe:(fun i _ ->
      Printf.sprintf
        "net %S is hard to control (SCOAP cc0=%s cc1=%s, limit %d)"
        (name ctx i)
        (show_cost scoap.Scoap.cc0.(i))
        (show_cost scoap.Scoap.cc1.(i))
        limits.cc_limit)
  @ flag ~rule:"W-TEST-OBS"
      ~measure:(fun i -> scoap.Scoap.obs.(i))
      ~limit:limits.obs_limit
      ~describe:(fun i _ ->
        Printf.sprintf
          "net %S is hard to observe (SCOAP obs=%s, limit %d)" (name ctx i)
          (show_cost scoap.Scoap.obs.(i))
          limits.obs_limit)
