open Fst_logic
open Fst_netlist
module Q = QCheck

let test_build_and_stats () =
  let c, _pi0, _ff0, _ff1, _g0 = Helpers.figure2_circuit () in
  Alcotest.(check int) "nets" 5 (Circuit.num_nets c);
  Alcotest.(check int) "gates" 2 (Circuit.gate_count c);
  Alcotest.(check int) "dffs" 2 (Circuit.dff_count c);
  Alcotest.(check int) "inputs" 1 (Circuit.input_count c);
  Alcotest.(check int) "outputs" 1 (Array.length c.Circuit.outputs)

let test_topo_order () =
  let c, _, _, _, _ = Helpers.figure2_circuit () in
  let pos = Array.make (Circuit.num_nets c) 0 in
  Array.iteri (fun k i -> pos.(i) <- k) c.Circuit.topo;
  Array.iteri
    (fun i nd ->
      match nd with
      | Circuit.Gate (_, fi) ->
        Array.iter
          (fun f ->
            match Circuit.node c f with
            | Circuit.Gate _ ->
              Alcotest.(check bool) "fanin before gate" true (pos.(f) < pos.(i))
            | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> ())
          fi
      | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> ())
    c.Circuit.nodes

let test_comb_cycle_rejected () =
  let b = Builder.create ~name:"cyclic" () in
  let i = Builder.add_input b in
  (* g0 and g1 form a combinational loop. *)
  let g0 = Builder.add_gate b Gate.And [ i; i ] in
  let g1 = Builder.add_gate b Gate.Or [ g0; i ] in
  Builder.rewire_fanin b ~node:g0 ~pin:1 ~net:g1;
  (* The message names the circuit and one representative cycle path. *)
  (match Builder.freeze b with
   | _ -> Alcotest.fail "cycle accepted"
   | exception Circuit.Combinational_cycle msg ->
     Alcotest.(check bool) "names the circuit" true
       (Helpers.contains_substring ~needle:"cyclic" msg);
     Alcotest.(check bool) "lists a cycle path" true
       (Helpers.contains_substring ~needle:" -> " msg))

let test_dff_loop_allowed () =
  let b = Builder.create ~name:"dffloop" () in
  let ff = Builder.add_dff_placeholder b in
  let g = Builder.add_gate b Gate.Not [ ff ] in
  Builder.connect_dff b ~ff ~data:g;
  Builder.mark_output b g;
  let c = Builder.freeze b in
  Alcotest.(check int) "nets" 2 (Circuit.num_nets c)

let test_unconnected_dff_rejected () =
  let b = Builder.create () in
  let _ff = Builder.add_dff_placeholder b in
  (match Builder.freeze b with
   | exception Circuit.Malformed _ -> ()
   | _ -> Alcotest.fail "expected Malformed")

(* The bad-reference messages name the referencing node and the bad net. *)
let test_bad_reference_messages () =
  let message nodes outputs =
    let net_names = Array.mapi (fun i _ -> Printf.sprintf "n%d" i) nodes in
    match Circuit.make ~name:"bad" ~nodes ~net_names ~outputs with
    | exception Circuit.Malformed m -> m
    | _ -> Alcotest.fail "expected Malformed"
  in
  Alcotest.(check string) "gate fanin"
    "gate at net 1 references bad net 7"
    (message [| Circuit.Input; Circuit.Gate (Gate.And, [| 0; 7 |]) |] [||]);
  Alcotest.(check string) "dff data" "dff at net 1 references bad net -1"
    (message [| Circuit.Input; Circuit.Dff (-1) |] [||]);
  Alcotest.(check string) "output" "output list references bad net 2"
    (message [| Circuit.Input |] [| 2 |])

let test_duplicate_name_rejected () =
  let b = Builder.create () in
  let _ = Builder.add_input ~name:"a" b in
  (match Builder.add_input ~name:"a" b with
   | exception Circuit.Malformed _ -> ()
   | _ -> Alcotest.fail "expected Malformed")

let test_fanout () =
  let c, pi0, ff0, _ff1, g0 = Helpers.figure2_circuit () in
  let consumers n = Array.to_list c.Circuit.fanout.(n) |> List.sort compare in
  Alcotest.(check (list int)) "pi0 feeds g0" [ g0 ] (consumers pi0);
  Alcotest.(check (list int)) "ff0 feeds g0" [ g0 ] (consumers ff0)

let test_levels () =
  let c, pi0, _ff0, _ff1, g0 = Helpers.figure2_circuit () in
  Alcotest.(check int) "pi level 0" 0 c.Circuit.level.(pi0);
  Alcotest.(check int) "gate level 1" 1 c.Circuit.level.(g0)

let test_find_net () =
  let c, pi0, _, _, _ = Helpers.figure2_circuit () in
  Alcotest.(check int) "find pi0" pi0 (Circuit.find_net c "pi0");
  (match Circuit.find_net c "nosuch" with
   | exception Not_found -> ()
   | _ -> Alcotest.fail "expected Not_found")

(* Netfile round trip: parse(print(c)) must be structurally identical. *)
let circuits_equal a b =
  Circuit.num_nets a = Circuit.num_nets b
  && a.Circuit.outputs
     = Array.map (fun o -> Circuit.find_net a (Circuit.net_name b o)) b.Circuit.outputs
  &&
  let ok = ref true in
  Array.iteri
    (fun i nd ->
      let i' = Circuit.find_net b (Circuit.net_name a i) in
      let nd' = Circuit.node b i' in
      let same =
        match nd, nd' with
        | Circuit.Input, Circuit.Input -> true
        | Circuit.Const v, Circuit.Const v' -> V3.equal v v'
        | Circuit.Dff d, Circuit.Dff d' ->
          Circuit.net_name a d = Circuit.net_name b d'
        | Circuit.Gate (g, fi), Circuit.Gate (g', fi') ->
          Gate.equal g g'
          && Array.length fi = Array.length fi'
          && Array.for_all2
               (fun x y -> Circuit.net_name a x = Circuit.net_name b y)
               fi fi'
        | (Circuit.Input | Circuit.Const _ | Circuit.Dff _ | Circuit.Gate _), _
          -> false
      in
      if not same then ok := false)
    a.Circuit.nodes;
  !ok

let prop_netfile_roundtrip =
  Q.Test.make ~name:"netfile roundtrip" ~count:30
    (Q.map
       (fun seed -> Int64.of_int seed)
       Q.(int_bound 100000))
    (fun seed ->
      let c = Helpers.small_seq_circuit seed in
      let c' = Netfile.parse_string ~name:c.Circuit.name (Netfile.to_string c) in
      circuits_equal c c')

let test_parse_errors () =
  let expect_error text =
    match Netfile.parse_string text with
    | exception Netfile.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected parse error for: " ^ text)
  in
  expect_error "garbage line";
  expect_error "a = FROB(b)";
  expect_error "INPUT(a)\na = AND(a, a)";
  expect_error "INPUT(a)\nb = AND(a, nosuch)";
  expect_error "INPUT(a)\nb = DFF(a, a)"

let test_parse_const_and_comment () =
  let c =
    Netfile.parse_string
      "# a comment\nINPUT(a)\nOUTPUT(y)\nk = CONST1\ny = AND(a, k)\n"
  in
  Alcotest.(check int) "nets" 3 (Circuit.num_nets c);
  match Circuit.node c (Circuit.find_net c "k") with
  | Circuit.Const V3.One -> ()
  | _ -> Alcotest.fail "expected CONST1"

let suite =
  [
    Alcotest.test_case "build and stats" `Quick test_build_and_stats;
    Alcotest.test_case "topological order" `Quick test_topo_order;
    Alcotest.test_case "combinational cycle rejected" `Quick test_comb_cycle_rejected;
    Alcotest.test_case "dff loop allowed" `Quick test_dff_loop_allowed;
    Alcotest.test_case "unconnected dff rejected" `Quick test_unconnected_dff_rejected;
    Alcotest.test_case "bad reference messages" `Quick test_bad_reference_messages;
    Alcotest.test_case "duplicate name rejected" `Quick test_duplicate_name_rejected;
    Alcotest.test_case "fanout" `Quick test_fanout;
    Alcotest.test_case "levels" `Quick test_levels;
    Alcotest.test_case "find net" `Quick test_find_net;
    Helpers.qcheck prop_netfile_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "const and comments" `Quick test_parse_const_and_comment;
  ]
