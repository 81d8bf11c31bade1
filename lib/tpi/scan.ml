open Fst_logic
open Fst_netlist
open Fst_sim

type segment = {
  src : int;
  dst_ff : int;
  path : int array;
  invert : bool;
  via_mux : bool;
}

type chain = {
  index : int;
  scan_in : int;
  scan_out : int;
  ffs : int array;
  segments : segment array;
}

type config = {
  scan_mode : int;
  constraints : (int * V3.t) list;
  chains : chain array;
  test_points : int;
  mux_segments : int;
}

(* A compiled machine with the scan-mode constraints applied. *)
let constrained c config =
  let cc = Compiled.of_circuit c in
  let v = Compiled.make_vec cc in
  List.iter
    (fun (n, x) -> Compiled.set v cc.Compiled.perm.(n) (V3b.of_v3 x))
    config.constraints;
  (cc, v)

let value (cc : Compiled.t) v n =
  V3b.to_v3 (Compiled.get v cc.Compiled.perm.(n))

let scan_mode_values c config =
  let cc, v = constrained c config in
  Compiled.eval cc v;
  Array.init (Circuit.num_nets c) (value cc v)

let chain_locations c config =
  let locs = Array.make (Circuit.num_nets c) [] in
  let add net loc = locs.(net) <- loc :: locs.(net) in
  Array.iter
    (fun ch ->
      add ch.scan_in (ch.index, 0);
      Array.iteri (fun p ff -> add ff (ch.index, p + 1)) ch.ffs;
      Array.iteri
        (fun s seg -> Array.iter (fun net -> add net (ch.index, s)) seg.path)
        ch.segments)
    config.chains;
  Array.map List.rev locs

let side_pins c config ~chain ~segment =
  let ch = config.chains.(chain) in
  let seg = ch.segments.(segment) in
  let sides = ref [] in
  let entering = ref seg.src in
  Array.iter
    (fun gate_net ->
      let fi = Circuit.fanins c gate_net in
      Array.iteri
        (fun pin f ->
          if f <> !entering then sides := (gate_net, pin, f) :: !sides)
        fi;
      entering := gate_net)
    seg.path;
  List.rev !sides

let parity ch ~position =
  let p = ref false in
  for s = 0 to position do
    if ch.segments.(s).invert then p := not !p
  done;
  !p

let apply_parity v inv = if inv then V3.bnot v else v

let scan_in_stream ch ~values =
  let len = Array.length ch.ffs in
  assert (Array.length values = len);
  let stream = Array.make len V3.X in
  for p = 0 to len - 1 do
    stream.(len - 1 - p) <- apply_parity values.(p) (parity ch ~position:p)
  done;
  stream

type shift_error = {
  se_chain : int;
  se_position : int;
  se_net : int;
  se_expected : V3.t;
  se_got : V3.t;
}

let shift_error_message c e =
  Printf.sprintf "chain %d position %d (%s): expected %c, got %c" e.se_chain
    e.se_position
    (Circuit.net_name c e.se_net)
    (V3.to_char e.se_expected) (V3.to_char e.se_got)

(* A small deterministic bit generator for the self-check pattern. *)
let check_bit k = (k * 7 / 3) land 1 = 1

let verify_shift c config =
  let cc, st = constrained c config in
  let latch = Bytes.create (max 1 cc.Compiled.n_ffs) in
  let streams =
    Array.map
      (fun ch ->
        let len = Array.length ch.ffs in
        let desired =
          Array.init len (fun p -> V3.of_bool (check_bit (p + ch.index)))
        in
        (ch, desired, scan_in_stream ch ~values:desired))
      config.chains
  in
  let max_len =
    Array.fold_left (fun m ch -> max m (Array.length ch.ffs)) 0 config.chains
  in
  for t = 0 to max_len - 1 do
    Array.iter
      (fun (ch, _, stream) ->
        let len = Array.length ch.ffs in
        (* Align streams so every chain finishes loading at [max_len]. *)
        let v = if t < max_len - len then V3.X else stream.(t - (max_len - len)) in
        Compiled.set st cc.Compiled.perm.(ch.scan_in) (V3b.of_v3 v))
      streams;
    Compiled.eval cc st;
    Compiled.clock cc st latch
  done;
  let errors = ref [] in
  Array.iter
    (fun (ch, desired, _) ->
      Array.iteri
        (fun p ff ->
          let got = value cc st ff in
          if not (V3.equal got desired.(p)) then
            errors :=
              {
                se_chain = ch.index;
                se_position = p;
                se_net = ff;
                se_expected = desired.(p);
                se_got = got;
              }
              :: !errors)
        ch.ffs)
    streams;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let verify_shift_msg c config =
  match verify_shift c config with
  | Ok () -> Ok ()
  | Error es ->
    Error (String.concat "; " (List.map (shift_error_message c) es))

let pp_config c ppf config =
  Fmt.pf ppf "scan: %d chain(s), %d test point(s), %d mux segment(s), %d constrained PI(s)"
    (Array.length config.chains)
    config.test_points config.mux_segments
    (List.length config.constraints);
  Array.iter
    (fun ch ->
      Fmt.pf ppf "@.  chain %d: %d FFs, scan_in=%s scan_out=%s" ch.index
        (Array.length ch.ffs)
        (Circuit.net_name c ch.scan_in)
        (Circuit.net_name c ch.scan_out))
    config.chains
