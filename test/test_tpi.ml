open Fst_logic
open Fst_netlist
open Fst_tpi
module Q = QCheck

let options chains = { Tpi.default_options with Tpi.chains; justify_depth = 4 }

let test_figure2_insertion () =
  let c, _pi0, _ff0, _ff1, _g0 = Helpers.figure2_circuit () in
  let scanned, config = Tpi.insert ~options:(options 1) c in
  Alcotest.(check int) "one chain" 1 (Array.length config.Scan.chains);
  let ch = config.Scan.chains.(0) in
  Alcotest.(check int) "two flip-flops" 2 (Array.length ch.Scan.ffs);
  (match Scan.verify_shift_msg scanned config with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  (* The AND gate path ff0 -> g0 -> ff1 is sensitizable by assigning pi0=1,
     so at most the chain head needs a multiplexer. *)
  Alcotest.(check bool) "few mux segments" true (config.Scan.mux_segments <= 2)

(* Every insertion yields a config that actually shifts, with the original
   circuit untouched on its existing nets. *)
let prop_insert_shifts =
  Q.Test.make ~name:"tpi chains shift correctly" ~count:25
    (Q.pair (Q.map Int64.of_int (Q.int_bound 1000000)) (Q.int_range 1 3))
    (fun (seed, chains) ->
      let c = Helpers.small_seq_circuit ~gates:150 ~ffs:12 seed in
      let scanned, config = Tpi.insert ~options:(options chains) c in
      (match Scan.verify_shift_msg scanned config with
       | Ok () -> ()
       | Error e -> QCheck.Test.fail_reportf "shift broken: %s" e);
      (* Original nets preserved verbatim. *)
      Circuit.num_nets c <= Circuit.num_nets scanned
      && Array.for_all
           (fun i ->
             Circuit.net_name c i = Circuit.net_name scanned i)
           (Array.init (Circuit.num_nets c) (fun i -> i)))

let prop_chain_partition_complete =
  Q.Test.make ~name:"chains cover all flip-flops exactly once" ~count:20
    (Q.pair (Q.map Int64.of_int (Q.int_bound 1000000)) (Q.int_range 1 4))
    (fun (seed, chains) ->
      let c = Helpers.small_seq_circuit ~gates:120 ~ffs:10 seed in
      let _, config = Tpi.insert ~options:(options chains) c in
      let all =
        Array.to_list config.Scan.chains
        |> List.concat_map (fun ch -> Array.to_list ch.Scan.ffs)
        |> List.sort compare
      in
      all = (Array.to_list c.Circuit.dffs |> List.sort compare))

let prop_segments_consistent =
  Q.Test.make ~name:"segment sources and sinks are chained" ~count:20
    (Q.map Int64.of_int (Q.int_bound 1000000))
    (fun seed ->
      let c = Helpers.small_seq_circuit ~gates:120 ~ffs:10 seed in
      let _, config = Tpi.insert ~options:(options 2) c in
      Array.for_all
        (fun ch ->
          let ok = ref true in
          Array.iteri
            (fun i (seg : Scan.segment) ->
              let expected_src =
                if i = 0 then ch.Scan.scan_in else ch.Scan.ffs.(i - 1)
              in
              if seg.Scan.src <> expected_src then ok := false;
              if seg.Scan.dst_ff <> ch.Scan.ffs.(i) then ok := false)
            ch.Scan.segments;
          !ok)
        config.Scan.chains)

let test_scan_mode_values_force_sides () =
  (* Every non-mux segment's and/or-family side pins must be non-controlling
     under the scan-mode constants; xor-family side pins must be binary. *)
  let c = Helpers.small_seq_circuit ~gates:200 ~ffs:14 21L in
  let scanned, config = Tpi.insert ~options:(options 2) c in
  let v = Scan.scan_mode_values scanned config in
  Array.iter
    (fun ch ->
      Array.iteri
        (fun s _ ->
          List.iter
            (fun (node, _pin, net) ->
              match Circuit.node scanned node with
              | Circuit.Gate (g, _) -> (
                match g with
                | Gate.And | Gate.Nand ->
                  Helpers.check_v3 "and side" V3.One v.(net)
                | Gate.Or | Gate.Nor ->
                  Helpers.check_v3 "or side" V3.Zero v.(net)
                | Gate.Xor | Gate.Xnor ->
                  Alcotest.(check bool) "xor side binary" true (V3.is_binary v.(net))
                | Gate.Not | Gate.Buf -> ())
              | Circuit.Input | Circuit.Const _ | Circuit.Dff _ ->
                Alcotest.fail "side pin on a non-gate")
            (Scan.side_pins scanned config ~chain:ch.Scan.index ~segment:s))
        ch.Scan.segments)
    config.Scan.chains

let test_scan_in_stream_parity () =
  let c = Helpers.small_seq_circuit ~gates:150 ~ffs:8 33L in
  let scanned, config = Tpi.insert ~options:(options 1) c in
  let ch = config.Scan.chains.(0) in
  let len = Array.length ch.Scan.ffs in
  let desired = Array.init len (fun p -> V3.of_bool (p mod 2 = 0)) in
  let stream = Scan.scan_in_stream ch ~values:desired in
  (* Simulate the stream and compare against the desired state. *)
  let st = Sim_oracle.create scanned in
  List.iter (fun (n, v) -> Sim_oracle.set_input scanned st n v) config.Scan.constraints;
  for t = 0 to len - 1 do
    Sim_oracle.set_input scanned st ch.Scan.scan_in stream.(t);
    Sim_oracle.eval_comb scanned st;
    Sim_oracle.clock scanned st
  done;
  Array.iteri
    (fun p ff ->
      Helpers.check_v3
        (Printf.sprintf "position %d" p)
        desired.(p)
        (Sim_oracle.value st ff))
    ch.Scan.ffs

let test_chain_locations_cover () =
  let c = Helpers.small_seq_circuit ~gates:150 ~ffs:8 44L in
  let scanned, config = Tpi.insert ~options:(options 2) c in
  let locs = Scan.chain_locations scanned config in
  Array.iter
    (fun ch ->
      (* scan-in is location 0. *)
      Alcotest.(check bool) "scan_in located" true
        (List.mem (ch.Scan.index, 0) locs.(ch.Scan.scan_in));
      Array.iteri
        (fun p ff ->
          Alcotest.(check bool) "ff located" true
            (List.mem (ch.Scan.index, p + 1) locs.(ff)))
        ch.Scan.ffs;
      Array.iteri
        (fun s (seg : Scan.segment) ->
          Array.iter
            (fun net ->
              Alcotest.(check bool) "path net located" true
                (List.mem (ch.Scan.index, s) locs.(net)))
            seg.Scan.path)
        ch.Scan.segments)
    config.Scan.chains

let test_full_scan_baseline () =
  let c = Helpers.small_seq_circuit ~gates:150 ~ffs:10 55L in
  let scanned, config = Tpi.full_scan ~chains:2 c in
  (match Scan.verify_shift_msg scanned config with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check int) "every segment is a mux" 10 config.Scan.mux_segments;
  (* The paper's saving is in scan cells and dedicated routing: TPI needs
     strictly fewer multiplexed segments (dedicated scan routes) than the
     conventional baseline whenever functional paths exist. *)
  let tpi_scanned, tpi_config = Tpi.insert ~options:(options 2) c in
  let oh_full = Tpi.overhead scanned config ~before:c in
  let oh_tpi = Tpi.overhead tpi_scanned tpi_config ~before:c in
  Alcotest.(check bool) "tpi saves dedicated routes" true
    (oh_tpi.Tpi.dedicated_routes < oh_full.Tpi.dedicated_routes);
  Alcotest.(check bool) "tpi has functional segments" true
    (oh_tpi.Tpi.functional_segments > 0);
  Alcotest.(check bool) "overhead accounted" true (oh_tpi.Tpi.extra_gates > 0)

let functional_count config =
  Array.fold_left
    (fun acc ch ->
      Array.fold_left
        (fun acc (s : Scan.segment) -> if s.Scan.via_mux then acc else acc + 1)
        acc ch.Scan.segments)
    0 config.Scan.chains

let prop_orderings_shift =
  Q.Test.make ~name:"all orderings produce working chains" ~count:10
    (Q.map Int64.of_int (Q.int_bound 1000000))
    (fun seed ->
      let c = Helpers.small_seq_circuit ~gates:150 ~ffs:12 seed in
      List.for_all
        (fun ordering ->
          let scanned, config =
            Tpi.insert ~options:{ (options 2) with Tpi.ordering } c
          in
          match Scan.verify_shift_msg scanned config with
          | Ok () -> true
          | Error _ -> false)
        [ Tpi.Greedy_functional; Tpi.Natural; Tpi.Shuffled 99L ])

let test_shuffled_deterministic () =
  let c = Helpers.small_seq_circuit ~gates:120 ~ffs:10 3L in
  let order_of seed =
    let _, config =
      Tpi.insert ~options:{ (options 1) with Tpi.ordering = Tpi.Shuffled seed } c
    in
    Array.to_list config.Scan.chains.(0).Scan.ffs
  in
  Alcotest.(check (list int)) "same seed, same order" (order_of 7L) (order_of 7L);
  Alcotest.(check bool) "different seeds differ (usually)" true
    (order_of 7L <> order_of 8L)

let test_greedy_maximizes_functional () =
  (* Greedy ordering should reuse at least as many functional paths as the
     arbitrary natural order on average; check a batch. *)
  let greedy_total = ref 0 and natural_total = ref 0 in
  List.iter
    (fun seed ->
      let c = Helpers.small_seq_circuit ~gates:150 ~ffs:12 seed in
      let _, cg =
        Tpi.insert ~options:{ (options 1) with Tpi.ordering = Tpi.Greedy_functional } c
      in
      let _, cn =
        Tpi.insert ~options:{ (options 1) with Tpi.ordering = Tpi.Natural } c
      in
      greedy_total := !greedy_total + functional_count cg;
      natural_total := !natural_total + functional_count cn)
    [ 1L; 2L; 3L; 4L; 5L ];
  Alcotest.(check bool)
    (Printf.sprintf "greedy %d >= natural %d" !greedy_total !natural_total)
    true
    (!greedy_total >= !natural_total)

let test_no_flip_flops_rejected () =
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let y = Builder.add_gate ~name:"y" b Gate.Not [ a ] in
  Builder.mark_output b y;
  let c = Builder.freeze b in
  match Tpi.insert c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* The oracle's shift check: the pattern and stream alignment of
   [Scan.verify_shift] (position [p] of chain [i] loads bit
   [((p + i) * 7 / 3) land 1]), driven through the interpreted machine.
   Returns every position that failed to load, in chain then position
   order. *)
let oracle_shift_failures c (config : Scan.config) =
  let st = Sim_oracle.create c in
  List.iter (fun (n, v) -> Sim_oracle.set_input c st n v) config.Scan.constraints;
  let desired ch =
    Array.init (Array.length ch.Scan.ffs) (fun p ->
        V3.of_bool ((p + ch.Scan.index) * 7 / 3 land 1 = 1))
  in
  let max_len =
    Array.fold_left (fun m ch -> max m (Array.length ch.Scan.ffs)) 0 config.Scan.chains
  in
  for t = 0 to max_len - 1 do
    Array.iter
      (fun ch ->
        let len = Array.length ch.Scan.ffs in
        let stream = Scan.scan_in_stream ch ~values:(desired ch) in
        let v = if t < max_len - len then V3.X else stream.(t - (max_len - len)) in
        Sim_oracle.set_input c st ch.Scan.scan_in v)
      config.Scan.chains;
    Sim_oracle.eval_comb c st;
    Sim_oracle.clock c st
  done;
  List.concat_map
    (fun ch ->
      let want = desired ch in
      List.filter_map
        (fun p ->
          let ff = ch.Scan.ffs.(p) in
          let got = Sim_oracle.value st ff in
          if V3.equal got want.(p) then None
          else Some (ch.Scan.index, p, ff, want.(p), got))
        (List.init (Array.length ch.Scan.ffs) Fun.id))
    (Array.to_list config.Scan.chains)

(* The compiled scan-mode settle and shift check agree with the
   interpreted oracle net by net and position by position, under random
   subsets of the scan-mode constraints plus random values on other
   inputs, and with a wrong-parity segment seeded into chain 0. *)
let prop_scan_matches_oracle =
  Q.Test.make ~name:"scan-mode values and shift check match the oracle"
    ~count:30
    (Q.triple (Q.map Int64.of_int (Q.int_bound 1000000)) (Q.int_range 1 3)
       (Q.int_bound 1000))
    (fun (seed, chains, salt) ->
      let c = Helpers.small_seq_circuit ~gates:90 ~ffs:7 seed in
      let scanned, config = Tpi.insert ~options:(options chains) c in
      let rng = Fst_gen.Rng.create (Int64.of_int (salt + 5)) in
      let coin () = Fst_gen.Rng.bool rng in
      let others =
        Array.to_list scanned.Circuit.inputs
        |> List.filter (fun pi -> not (List.mem_assoc pi config.Scan.constraints))
        |> List.map (fun pi ->
               (pi, List.nth Helpers.all_v3 (Fst_gen.Rng.int rng 3)))
      in
      let constraints =
        List.filter (fun _ -> coin ()) (config.Scan.constraints @ others)
      in
      let chains = Array.copy config.Scan.chains in
      if Fst_gen.Rng.int rng 3 = 0 then begin
        let ch = chains.(0) in
        let segments = Array.copy ch.Scan.segments in
        segments.(0) <-
          { segments.(0) with Scan.invert = not segments.(0).Scan.invert };
        chains.(0) <- { ch with Scan.segments }
      end;
      let config = { config with Scan.constraints; chains } in
      let st = Sim_oracle.create scanned in
      List.iter (fun (n, v) -> Sim_oracle.set_input scanned st n v) constraints;
      Sim_oracle.eval_comb scanned st;
      let values = Scan.scan_mode_values scanned config in
      let got =
        match Scan.verify_shift scanned config with
        | Ok () -> []
        | Error es ->
          List.map
            (fun e ->
              Scan.(e.se_chain, e.se_position, e.se_net, e.se_expected, e.se_got))
            es
      in
      Array.for_all2 V3.equal values (Sim_oracle.values st)
      && got = oracle_shift_failures scanned config)

let suite =
  [
    Alcotest.test_case "figure2 insertion" `Quick test_figure2_insertion;
    Helpers.qcheck prop_insert_shifts;
    Helpers.qcheck prop_chain_partition_complete;
    Helpers.qcheck prop_segments_consistent;
    Alcotest.test_case "side pins forced" `Quick test_scan_mode_values_force_sides;
    Alcotest.test_case "scan-in stream parity" `Quick test_scan_in_stream_parity;
    Helpers.qcheck prop_scan_matches_oracle;
    Alcotest.test_case "chain locations cover" `Quick test_chain_locations_cover;
    Alcotest.test_case "full-scan baseline" `Quick test_full_scan_baseline;
    Helpers.qcheck prop_orderings_shift;
    Alcotest.test_case "shuffled is deterministic" `Quick test_shuffled_deterministic;
    Alcotest.test_case "greedy maximizes functional reuse" `Quick test_greedy_maximizes_functional;
    Alcotest.test_case "no flip-flops rejected" `Quick test_no_flip_flops_rejected;
  ]
