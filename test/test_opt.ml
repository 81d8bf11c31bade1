open Fst_logic
open Fst_netlist
module Q = QCheck

(* Equivalence oracle: run both circuits for [cycles] with the same input
   stream and compare primary outputs and flip-flop values (matched by
   name) every cycle. *)
let equivalent a b ~seed ~cycles =
  let rng = Fst_gen.Rng.create seed in
  let stream =
    Array.init cycles (fun _ ->
        Array.to_list a.Circuit.inputs
        |> List.map (fun pi ->
               (Circuit.net_name a pi, V3.of_bool (Fst_gen.Rng.bool rng))))
  in
  let run (c : Circuit.t) =
    let st = Sim_oracle.create c in
    let trace = ref [] in
    Array.iter
      (fun assigns ->
        List.iter
          (fun (name, v) ->
            Sim_oracle.set_input c st (Circuit.find_net c name) v)
          assigns;
        Sim_oracle.eval_comb c st;
        let outs = Array.map (fun o -> Sim_oracle.value st o) c.Circuit.outputs in
        let ffs =
          Array.to_list c.Circuit.dffs
          |> List.map (fun ff -> (Circuit.net_name c ff, Sim_oracle.value st ff))
          |> List.sort compare
        in
        trace := (Array.to_list outs, ffs) :: !trace;
        Sim_oracle.clock c st)
      stream;
    List.rev !trace
  in
  run a = run b

(* A circuit with constants and buffers to chew on. *)
let dirty_circuit seed =
  let rng = Fst_gen.Rng.create seed in
  let b = Builder.create ~name:"dirty" () in
  let pis = Array.init 5 (fun i -> Builder.add_input ~name:(Printf.sprintf "pi%d" i) b) in
  let k0 = Builder.add_const ~name:"k0" b V3.Zero in
  let k1 = Builder.add_const ~name:"k1" b V3.One in
  let pool = ref (Array.to_list pis @ [ k0; k1 ]) in
  let pick () = Fst_gen.Rng.pick rng (Array.of_list !pool) in
  let ffs = Array.init 4 (fun i -> Builder.add_dff_placeholder ~name:(Printf.sprintf "ff%d" i) b) in
  pool := Array.to_list ffs @ !pool;
  for i = 0 to 39 do
    let g =
      Fst_gen.Rng.weighted rng
        [ (3, Gate.Nand); (3, Gate.Nor); (2, Gate.And); (2, Gate.Or);
          (3, Gate.Not); (3, Gate.Buf); (2, Gate.Xor); (1, Gate.Xnor) ]
    in
    let arity = match g with Gate.Not | Gate.Buf -> 1 | _ -> 2 + Fst_gen.Rng.int rng 5 in
    let net =
      Builder.add_gate ~name:(Printf.sprintf "g%d" i) b g
        (List.init arity (fun _ -> pick ()))
    in
    pool := net :: !pool
  done;
  Array.iter (fun ff -> Builder.connect_dff b ~ff ~data:(pick ())) ffs;
  for _ = 0 to 3 do
    Builder.mark_output b (pick ())
  done;
  Builder.freeze b

let passes =
  [
    ("constant_fold", fun c -> Opt.constant_fold c);
    ("collapse_buffers", fun c -> Opt.collapse_buffers c);
    ("sweep", fun c -> Opt.sweep c);
    ("limit_fanin", fun c -> Opt.limit_fanin ~max_fanin:3 c);
    ("optimize", fun c -> Opt.optimize c);
  ]

let prop_passes_preserve_behavior =
  Q.Test.make ~name:"optimization passes preserve behaviour" ~count:25
    (Q.map Int64.of_int (Q.int_bound 1000000))
    (fun seed ->
      let c = dirty_circuit seed in
      List.for_all
        (fun (name, pass) ->
          let c', _ = pass c in
          if equivalent c c' ~seed:(Int64.add seed 17L) ~cycles:8 then true
          else Q.Test.fail_reportf "pass %s changed behaviour" name)
        passes)

let test_constant_fold_shrinks () =
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let k1 = Builder.add_const ~name:"k1" b V3.One in
  let y = Builder.add_gate ~name:"y" b Gate.And [ a; k1 ] in
  let z = Builder.add_gate ~name:"z" b Gate.Or [ y; k1 ] in
  Builder.mark_output b z;
  let c = Builder.freeze b in
  let c', stats = Opt.constant_fold c in
  Alcotest.(check bool) "fold happened" true (stats.Opt.folded >= 1);
  (* z = OR(_, 1) = 1: the output collapses to a constant. *)
  match Circuit.node c' c'.Circuit.outputs.(0) with
  | Circuit.Const V3.One -> ()
  | _ -> Alcotest.fail "output should fold to constant 1"

let test_buffer_chain_collapses () =
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let b1 = Builder.add_gate ~name:"b1" b Gate.Buf [ a ] in
  let n1 = Builder.add_gate ~name:"n1" b Gate.Not [ b1 ] in
  let n2 = Builder.add_gate ~name:"n2" b Gate.Not [ n1 ] in
  let y = Builder.add_gate ~name:"y" b Gate.Buf [ n2 ] in
  Builder.mark_output b y;
  let c = Builder.freeze b in
  let c', stats = Opt.optimize c in
  Alcotest.(check bool) "bypasses counted" true (stats.Opt.bypassed >= 2);
  (* Everything collapses onto the input. *)
  Alcotest.(check int) "output is the input" c'.Circuit.outputs.(0)
    (Circuit.find_net c' "a")

let test_sweep_removes_dangling () =
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let y = Builder.add_gate ~name:"y" b Gate.Not [ a ] in
  let _dangling = Builder.add_gate ~name:"dead" b Gate.Not [ a ] in
  Builder.mark_output b y;
  let c = Builder.freeze b in
  let c', stats = Opt.sweep c in
  Alcotest.(check int) "one gate swept" 1 stats.Opt.swept;
  Alcotest.(check int) "one gate left" 1 (Circuit.gate_count c')

let test_limit_fanin_bound () =
  let b = Builder.create () in
  let pis = List.init 9 (fun i -> Builder.add_input ~name:(Printf.sprintf "i%d" i) b) in
  let y = Builder.add_gate ~name:"y" b Gate.Nand pis in
  Builder.mark_output b y;
  let c = Builder.freeze b in
  let c', stats = Opt.limit_fanin ~max_fanin:3 c in
  Alcotest.(check bool) "gates added" true (stats.Opt.decomposed > 0);
  Alcotest.(check bool) "fanin bounded" true (Circuit.max_fanin c' <= 3);
  (* Polarity preserved: output is still a nand. *)
  match Circuit.node c' (Circuit.find_net c' "y") with
  | Circuit.Gate (Gate.Nand, _) -> ()
  | _ -> Alcotest.fail "root polarity lost"

let test_flip_flops_survive () =
  let c = Helpers.small_seq_circuit ~gates:80 ~ffs:8 3L in
  let c', _ = Opt.optimize c in
  Alcotest.(check int) "ff count preserved" (Circuit.dff_count c)
    (Circuit.dff_count c')

let suite =
  [
    Helpers.qcheck prop_passes_preserve_behavior;
    Alcotest.test_case "constant fold shrinks" `Quick test_constant_fold_shrinks;
    Alcotest.test_case "buffer chain collapses" `Quick test_buffer_chain_collapses;
    Alcotest.test_case "sweep removes dangling" `Quick test_sweep_removes_dangling;
    Alcotest.test_case "fanin bound" `Quick test_limit_fanin_bound;
    Alcotest.test_case "flip-flops survive" `Quick test_flip_flops_survive;
  ]
