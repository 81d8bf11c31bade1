open Fst_logic
open Fst_netlist
open Fst_sim
module Q = QCheck

(* A 3-stage plain shift register: si -> ff0 -> ff1 -> ff2 (po). *)
let shift3 () =
  let b = Builder.create ~name:"shift3" () in
  let si = Builder.add_input ~name:"si" b in
  let ff0 = Builder.add_dff ~name:"ff0" b ~data:si in
  let ff1 = Builder.add_dff ~name:"ff1" b ~data:ff0 in
  let ff2 = Builder.add_dff ~name:"ff2" b ~data:ff1 in
  Builder.mark_output b ff2;
  (Builder.freeze b, si, ff2)

let test_shift_register () =
  let c, si, ff2 = shift3 () in
  let observed = ref [] in
  let pattern = [| V3.One; V3.Zero; V3.Zero; V3.One; V3.One; V3.X |] in
  Sim_oracle.run c ~cycles:(Array.length pattern)
    ~stimulus:(fun t -> [ (si, pattern.(t)) ])
    ~observe:(fun _ st -> observed := Sim_oracle.value st ff2 :: !observed);
  let got = Array.of_list (List.rev !observed) in
  (* Output lags input by three cycles; initial state is X. *)
  Helpers.check_v3 "t0" V3.X got.(0);
  Helpers.check_v3 "t3" V3.One got.(3);
  Helpers.check_v3 "t4" V3.Zero got.(4);
  Helpers.check_v3 "t5" V3.Zero got.(5)

let test_comb_eval () =
  let b = Builder.create () in
  let a = Builder.add_input ~name:"a" b in
  let bb = Builder.add_input ~name:"b" b in
  let y = Builder.add_gate ~name:"y" b Gate.Nand [ a; bb ] in
  Builder.mark_output b y;
  let c = Builder.freeze b in
  let st = Sim_oracle.create c in
  Sim_oracle.set_input c st a V3.One;
  Sim_oracle.set_input c st bb V3.One;
  Sim_oracle.eval_comb c st;
  Helpers.check_v3 "nand(1,1)" V3.Zero (Sim_oracle.value st y)

let test_const_nets () =
  let b = Builder.create () in
  let k = Builder.add_const ~name:"k1" b V3.One in
  let a = Builder.add_input ~name:"a" b in
  let y = Builder.add_gate ~name:"y" b Gate.And [ k; a ] in
  Builder.mark_output b y;
  let c = Builder.freeze b in
  let st = Sim_oracle.create c in
  Sim_oracle.set_input c st a V3.Zero;
  Sim_oracle.eval_comb c st;
  Helpers.check_v3 "and(1,0)" V3.Zero (Sim_oracle.value st y)

let test_set_input_guard () =
  let c, _si, ff2 = shift3 () in
  let st = Sim_oracle.create c in
  match Sim_oracle.set_input c st ff2 V3.One with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument"

let test_simultaneous_latch () =
  (* A two-stage swap: ff0 <- ff1, ff1 <- ff0. After one clock the values
     must exchange (not cascade), proving the latch is simultaneous. *)
  let b = Builder.create () in
  let ff0 = Builder.add_dff_placeholder ~name:"f0" b in
  let ff1 = Builder.add_dff_placeholder ~name:"f1" b in
  Builder.connect_dff b ~ff:ff0 ~data:ff1;
  Builder.connect_dff b ~ff:ff1 ~data:ff0;
  Builder.mark_output b ff0;
  let c = Builder.freeze b in
  let st = Sim_oracle.create c in
  Sim_oracle.set_ff c st ff0 V3.One;
  Sim_oracle.set_ff c st ff1 V3.Zero;
  Sim_oracle.eval_comb c st;
  Sim_oracle.clock c st;
  Helpers.check_v3 "ff0 got old ff1" V3.Zero (Sim_oracle.value st ff0);
  Helpers.check_v3 "ff1 got old ff0" V3.One (Sim_oracle.value st ff1)

(* Monotonicity: refining an X primary input to a binary value never
   changes an output that was already binary. *)
let prop_monotone =
  Q.Test.make ~name:"3-valued simulation is monotone" ~count:60
    (Q.pair (Q.map Int64.of_int (Q.int_bound 10000)) (Q.int_bound 1000))
    (fun (seed, salt) ->
      let c = Helpers.small_seq_circuit seed in
      let rng = Fst_gen.Rng.create (Int64.of_int (salt + 17)) in
      let base =
        Array.map
          (fun pi ->
            ( pi,
              match Fst_gen.Rng.int rng 3 with
              | 0 -> V3.Zero
              | 1 -> V3.One
              | _ -> V3.X ))
          c.Circuit.inputs
      in
      let refined =
        Array.map
          (fun (pi, v) ->
            ( pi,
              if V3.equal v V3.X && Fst_gen.Rng.bool rng then
                V3.of_bool (Fst_gen.Rng.bool rng)
              else v ))
          base
      in
      let out values =
        let st = Sim_oracle.create c in
        Array.iter (fun (pi, v) -> Sim_oracle.set_input c st pi v) values;
        Sim_oracle.eval_comb c st;
        Sim_oracle.outputs c st
      in
      let before = out base and after = out refined in
      Array.for_all2 (fun a b -> V3.refines a b) after before)

(* A random stimulus of [cycles] cycles over the primary inputs. *)
let random_stim rng (c : Circuit.t) cycles =
  Array.init cycles (fun _ ->
      Array.to_list c.Circuit.inputs
      |> List.map (fun pi ->
             ( pi,
               match Fst_gen.Rng.int rng 4 with
               | 0 -> V3.X
               | 1 -> V3.Zero
               | _ -> V3.One )))

(* The interpreted machine's trace for cross-checking: per cycle, the
   post-settle value of every net. *)
let interpreted_trace (c : Circuit.t) stim =
  let st = Sim_oracle.create c in
  let rows = ref [] in
  Array.iter
    (fun assigns ->
      List.iter (fun (pi, v) -> Sim_oracle.set_input c st pi v) assigns;
      Sim_oracle.eval_comb c st;
      rows := Array.copy (Sim_oracle.values st) :: !rows;
      Sim_oracle.clock c st)
    stim;
  Array.of_list (List.rev !rows)

(* The compiled levelized kernel is bit-identical to the interpreted
   [Sim_oracle] machine: same value on every net of every cycle. *)
let prop_compiled_equals_interpreted =
  Q.Test.make ~name:"compiled kernel matches interpreted machine" ~count:40
    (Q.map Int64.of_int (Q.int_bound 1000000))
    (fun seed ->
      let c = Helpers.small_seq_circuit ~gates:100 ~ffs:8 seed in
      let rng = Fst_gen.Rng.create (Int64.add seed 11L) in
      let stim = random_stim rng c 10 in
      let want = interpreted_trace c stim in
      let cc = Compiled.of_circuit c in
      let rows = Compiled.trace cc (Compiled.compile_stim cc stim) in
      let ok = ref true in
      Array.iteri
        (fun t row ->
          for net = 0 to Circuit.num_nets c - 1 do
            let got = V3b.to_v3 (Compiled.get rows.(t) cc.Compiled.perm.(net)) in
            if not (V3.equal got row.(net)) then ok := false
          done)
        want;
      !ok)

(* The pattern-packed plane trace, recorded slice by slice, agrees lane
   by lane with the scalar compiled trace of each stimulus block (the
   good rows [Fsim.Serial] compares against) on every slot. Each block
   runs in a random number of lanes, [b], [b + 5], ..., as the fault
   simulator lays out a chunk of 5 blocks. Blocks run past one slice on
   half of the seeds, so the good machine is resumed across slice
   boundaries. *)
let prop_packed_trace_matches_scalar =
  Q.Test.make ~name:"packed plane trace matches per-block scalar trace"
    ~count:25
    (Q.map Int64.of_int (Q.int_bound 1000000))
    (fun seed ->
      let c = Helpers.small_seq_circuit ~gates:80 ~ffs:6 seed in
      let rng = Fst_gen.Rng.create (Int64.add seed 23L) in
      let long = Fst_gen.Rng.int rng 2 = 0 in
      let copies = 1 + Fst_gen.Rng.int rng 12 in
      let blocks =
        Array.init 5 (fun b ->
            random_stim rng c
              (if long then 40 + (b * 31) else 4 + (b mod 3 * 3)))
      in
      let cc = Compiled.of_circuit c in
      let cstims = Array.map (Compiled.compile_stim cc) blocks in
      let packed = Compiled.Planes.trace_packed cc cstims ~copies in
      let rows = Array.map (Compiled.trace cc) cstims in
      let slice = Compiled.Planes.slice_cycles ~n_slots:cc.Compiled.n_slots in
      let ok = ref (packed.Compiled.Planes.lanes = 5 * copies) in
      let slices = ref 0 in
      while
        packed.Compiled.Planes.first + packed.Compiled.Planes.len
        < packed.Compiled.Planes.cycles
      do
        Compiled.Planes.next_slice cc packed;
        incr slices;
        let first = packed.Compiled.Planes.first in
        if packed.Compiled.Planes.len > slice then ok := false;
        for j = 0 to packed.Compiled.Planes.len - 1 do
          for lane = 0 to packed.Compiled.Planes.lanes - 1 do
            let block_rows = rows.(lane mod 5) in
            let bit = 1 lsl lane in
            if first + j < Array.length block_rows then
              for s = 0 to cc.Compiled.n_slots - 1 do
                let row = packed.Compiled.Planes.rows.(j) in
                let o = row.(2 * s) land bit <> 0 in
                let z = row.((2 * s) + 1) land bit <> 0 in
                let code =
                  if o then V3b.one else if z then V3b.zero else V3b.x
                in
                if code <> Compiled.get block_rows.(first + j) s then
                  ok := false
              done
          done
        done
      done;
      let cycles = Array.fold_left (fun m b -> max m (Array.length b)) 0 blocks in
      !ok && !slices = (cycles + slice - 1) / slice)

(* A slice holds 32 cycles until 32 rows of 16 bytes a slot would pass
   256 MB (500,000 slots), then fewer, and never none. *)
let test_slice_cycles () =
  List.iter
    (fun (n_slots, want) ->
      Alcotest.(check int)
        (Printf.sprintf "%d slots" n_slots)
        want
        (Compiled.Planes.slice_cycles ~n_slots))
    [ (1, 32); (1_791, 32); (499_999, 32); (500_000, 31); (1_000_000, 15);
      (16_000_000, 1); (100_000_000, 1) ]

let suite =
  [
    Alcotest.test_case "shift register" `Quick test_shift_register;
    Helpers.qcheck prop_compiled_equals_interpreted;
    Helpers.qcheck prop_packed_trace_matches_scalar;
    Alcotest.test_case "slice length bounds its buffers" `Quick test_slice_cycles;
    Alcotest.test_case "comb eval" `Quick test_comb_eval;
    Alcotest.test_case "const nets" `Quick test_const_nets;
    Alcotest.test_case "set_input guard" `Quick test_set_input_guard;
    Alcotest.test_case "simultaneous latch" `Quick test_simultaneous_latch;
    Helpers.qcheck prop_monotone;
  ]
