open Fst_logic
module Q = QCheck

let arb_v3 = Q.oneofl Helpers.all_v3

let check_binary_agrees name op bop =
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              Helpers.check_v3
                (Printf.sprintf "%s %c %c" name (V3.to_char (V3.of_bool a))
                   (V3.to_char (V3.of_bool b)))
                (V3.of_bool (bop a b))
                (op (V3.of_bool a) (V3.of_bool b)))
            [ false; true ])
        [ false; true ])

let test_x_absorption () =
  Helpers.check_v3 "0 and X" V3.Zero (V3.band V3.Zero V3.X);
  Helpers.check_v3 "X and 0" V3.Zero (V3.band V3.X V3.Zero);
  Helpers.check_v3 "1 and X" V3.X (V3.band V3.One V3.X);
  Helpers.check_v3 "1 or X" V3.One (V3.bor V3.One V3.X);
  Helpers.check_v3 "0 or X" V3.X (V3.bor V3.Zero V3.X);
  Helpers.check_v3 "X xor 1" V3.X (V3.bxor V3.X V3.One);
  Helpers.check_v3 "not X" V3.X (V3.bnot V3.X)

let test_char_roundtrip () =
  List.iter
    (fun v -> Helpers.check_v3 "char roundtrip" v (V3.of_char (V3.to_char v)))
    Helpers.all_v3

let test_int_roundtrip () =
  List.iter
    (fun v -> Helpers.check_v3 "int roundtrip" v (V3.of_int (V3.to_int v)))
    Helpers.all_v3

let prop_de_morgan =
  Q.Test.make ~name:"de morgan over v3" ~count:200
    (Q.pair arb_v3 arb_v3)
    (fun (a, b) ->
      V3.equal (V3.bnot (V3.band a b)) (V3.bor (V3.bnot a) (V3.bnot b)))

let prop_refines_monotone_and =
  (* Refining an X operand never changes an already-binary result. *)
  Q.Test.make ~name:"band monotone under refinement" ~count:500
    (Q.triple arb_v3 arb_v3 (Q.oneofl [ V3.Zero; V3.One ]))
    (fun (a, b, r) ->
      let before = V3.band a b in
      let a' = if V3.equal a V3.X then r else a in
      let after = V3.band a' b in
      V3.refines after before)

let test_gate_eval_truth_tables () =
  let expect g ins out =
    Helpers.check_v3
      (Printf.sprintf "%s" (Gate.to_string g))
      out
      (Gate.eval_list g ins)
  in
  expect Gate.And [ V3.One; V3.One ] V3.One;
  expect Gate.And [ V3.One; V3.Zero ] V3.Zero;
  expect Gate.Nand [ V3.One; V3.One ] V3.Zero;
  expect Gate.Nand [ V3.Zero; V3.X ] V3.One;
  expect Gate.Or [ V3.Zero; V3.Zero ] V3.Zero;
  expect Gate.Nor [ V3.Zero; V3.Zero ] V3.One;
  expect Gate.Xor [ V3.One; V3.One; V3.One ] V3.One;
  expect Gate.Xor [ V3.One; V3.Zero ] V3.One;
  expect Gate.Xnor [ V3.One; V3.Zero ] V3.Zero;
  expect Gate.Not [ V3.Zero ] V3.One;
  expect Gate.Buf [ V3.X ] V3.X

let test_controlling_values () =
  List.iter
    (fun g ->
      match Gate.controlling g with
      | Some c ->
        (* A controlling value at one input fixes the output. *)
        let out = Gate.eval_list g [ c; V3.X; V3.X ] in
        Helpers.check_v3
          (Gate.to_string g ^ " controlled")
          (Gate.controlled_output g) out
      | None -> ())
    [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor ]

let test_inverting_matches_eval () =
  List.iter
    (fun g ->
      match g with
      | Gate.Not | Gate.Buf ->
        List.iter
          (fun v ->
            let out = Gate.eval_list g [ v ] in
            let expected = if Gate.inverting g then V3.bnot v else v in
            Helpers.check_v3 (Gate.to_string g) expected out)
          Helpers.all_v3
      | _ -> ())
    Gate.all

(* The packed 2-bit calculus agrees with V3 on every operand pair, and
   [detects] is exactly complementary-binary disagreement. *)
let test_v3b_agrees_with_v3 () =
  let codes = List.map V3b.of_v3 Helpers.all_v3 in
  List.iter
    (fun a ->
      Helpers.check_v3 "v3 roundtrip" (V3b.to_v3 (V3b.of_v3 a)) a;
      let ca = V3b.of_v3 a in
      Helpers.check_v3 "bnot" (V3.bnot a) (V3b.to_v3 (V3b.bnot ca));
      Alcotest.(check bool) "is_code" true (V3b.is_code ca);
      Alcotest.(check char) "to_char" (V3.to_char a) (V3b.to_char ca);
      List.iter
        (fun b ->
          let cb = V3b.of_v3 b in
          Helpers.check_v3 "band" (V3.band a b) (V3b.to_v3 (V3b.band ca cb));
          Helpers.check_v3 "bor" (V3.bor a b) (V3b.to_v3 (V3b.bor ca cb));
          Helpers.check_v3 "bxor" (V3.bxor a b) (V3b.to_v3 (V3b.bxor ca cb));
          let complementary =
            match a, b with
            | V3.One, V3.Zero | V3.Zero, V3.One -> true
            | _, _ -> false
          in
          Alcotest.(check bool) "detects" complementary
            (V3b.detects ~good:ca ~faulty:cb))
        Helpers.all_v3;
      (* Fold units leave the other operand unchanged. *)
      Helpers.check_v3 "and unit" a (V3b.to_v3 (V3b.band ca V3b.and_unit));
      Helpers.check_v3 "or unit" a (V3b.to_v3 (V3b.bor ca V3b.or_unit));
      Helpers.check_v3 "xor unit" a (V3b.to_v3 (V3b.bxor ca V3b.xor_unit)))
    Helpers.all_v3;
  (* The three codes are distinct and char-roundtrip. *)
  Alcotest.(check int) "three codes" 3
    (List.length (List.sort_uniq Int.compare codes));
  List.iter
    (fun c ->
      Alcotest.(check int) "char roundtrip" c (V3b.of_char (V3b.to_char c)))
    codes

let test_gate_string_roundtrip () =
  List.iter
    (fun g ->
      match Gate.of_string (Gate.to_string g) with
      | Some g' -> Alcotest.(check bool) "gate roundtrip" true (Gate.equal g g')
      | None -> Alcotest.fail "gate name did not parse")
    Gate.all

(* [Gate.of_inputs] over the flags of a fanin vector is [Gate.eval] of
   it, for every gate and every three-valued vector of 1 to 4 fanins
   the gate accepts. *)
let test_of_inputs_matches_eval () =
  let rec vectors n =
    if n = 0 then [ [] ]
    else
      List.concat_map (fun v -> List.map (fun r -> v :: r) (vectors (n - 1)))
        Helpers.all_v3
  in
  List.iter
    (fun g ->
      for n = 1 to 4 do
        if Gate.arity_ok g n then
          List.iter
            (fun vs ->
              let has v = List.exists (V3.equal v) vs in
              let odd =
                List.length (List.filter (V3.equal V3.One) vs) mod 2 = 1
              in
              Helpers.check_v3 (Gate.to_string g) (Gate.eval_list g vs)
                (Gate.of_inputs g ~zero:(has V3.Zero) ~one:(has V3.One)
                   ~x:(has V3.X) ~odd))
            (vectors n)
      done)
    Gate.all

let suite =
  [
    check_binary_agrees "band" V3.band ( && );
    check_binary_agrees "bor" V3.bor ( || );
    check_binary_agrees "bxor" V3.bxor ( <> );
    Alcotest.test_case "x absorption" `Quick test_x_absorption;
    Alcotest.test_case "char roundtrip" `Quick test_char_roundtrip;
    Alcotest.test_case "int roundtrip" `Quick test_int_roundtrip;
    Helpers.qcheck prop_de_morgan;
    Helpers.qcheck prop_refines_monotone_and;
    Alcotest.test_case "gate truth tables" `Quick test_gate_eval_truth_tables;
    Alcotest.test_case "controlling values" `Quick test_controlling_values;
    Alcotest.test_case "inversion parity" `Quick test_inverting_matches_eval;
    Alcotest.test_case "v3b packed calculus" `Quick test_v3b_agrees_with_v3;
    Alcotest.test_case "gate name roundtrip" `Quick test_gate_string_roundtrip;
    Alcotest.test_case "gate of flags = eval" `Quick test_of_inputs_matches_eval;
  ]
