(* Shared fixtures and generators for the test suites. *)

open Fst_logic
open Fst_netlist

let v3 = Alcotest.testable V3.pp V3.equal

let check_v3 = Alcotest.check v3

(* All three-valued values, for exhaustive truth-table checks. *)
let all_v3 = [ V3.Zero; V3.One; V3.X ]

(* A tiny sequential circuit in the spirit of the paper's Figure 2: a
   two-flip-flop chain whose scan path runs through an AND gate with a
   primary-input side input.

       pi0 --------.
                    \
       ff0 --------[AND g0]---- ff1(data)
       ff1 --------[NOT g1]---- po

   Returns (circuit, pi0, ff0, ff1, g0). *)
let figure2_circuit () =
  let b = Builder.create ~name:"fig2" () in
  let pi0 = Builder.add_input ~name:"pi0" b in
  let ff0 = Builder.add_dff_placeholder ~name:"ff0" b in
  let ff1 = Builder.add_dff_placeholder ~name:"ff1" b in
  let g0 = Builder.add_gate ~name:"g0" b Gate.And [ pi0; ff0 ] in
  let g1 = Builder.add_gate ~name:"g1" b Gate.Not [ ff1 ] in
  Builder.connect_dff b ~ff:ff1 ~data:g0;
  Builder.connect_dff b ~ff:ff0 ~data:g1;
  Builder.mark_output b g1;
  (Builder.freeze b, pi0, ff0, ff1, g0)

(* A small combinational circuit with inputs and outputs only, for
   brute-force ATPG cross-checks. *)
let random_comb_circuit rng ~inputs ~gates =
  let b = Builder.create ~name:"comb" () in
  let pis = Array.init inputs (fun i -> Builder.add_input ~name:(Printf.sprintf "i%d" i) b) in
  let pool = ref (Array.to_list pis) in
  let nets = ref (Array.to_list pis) in
  for k = 0 to gates - 1 do
    let g =
      Fst_gen.Rng.weighted rng
        [
          (3, Gate.Nand); (3, Gate.Nor); (2, Gate.And); (2, Gate.Or);
          (2, Gate.Not); (1, Gate.Buf); (1, Gate.Xor); (1, Gate.Xnor);
        ]
    in
    let arity = match g with Gate.Not | Gate.Buf -> 1 | _ -> 2 in
    let arr = Array.of_list !pool in
    let fanins = List.init arity (fun _ -> Fst_gen.Rng.pick rng arr) in
    let net = Builder.add_gate ~name:(Printf.sprintf "g%d" k) b g fanins in
    pool := net :: !pool;
    nets := net :: !nets
  done;
  (* Outputs: nets with no consumers. *)
  let frozen_probe = !pool in
  let used = Hashtbl.create 16 in
  List.iter
    (fun n ->
      match Builder.node b n with
      | Circuit.Gate (_, fi) -> Array.iter (fun f -> Hashtbl.replace used f ()) fi
      | _ -> ())
    frozen_probe;
  List.iter
    (fun n -> if not (Hashtbl.mem used n) then Builder.mark_output b n)
    (List.rev frozen_probe);
  Builder.freeze b

(* A small random sequential circuit via the generator. *)
let small_seq_circuit ?(gates = 80) ?(ffs = 8) seed =
  Fst_gen.Gen.generate
    { Fst_gen.Gen.name = Printf.sprintf "t%Ld" seed; gates; ffs; pis = 5; pos = 3; seed }

(* Exhaustive good/faulty evaluation of a combinational circuit over all
   binary input assignments; returns true if some assignment detects the
   fault at some output. *)
let brute_force_detectable (c : Circuit.t) (fault : Fst_fault.Fault.t) =
  let inputs = c.Circuit.inputs in
  let n = Array.length inputs in
  assert (n <= 16);
  let detected = ref false in
  for code = 0 to (1 lsl n) - 1 do
    if not !detected then begin
      let stim =
        [| Array.to_list
             (Array.mapi
                (fun k pi -> (pi, V3.of_bool (code land (1 lsl k) <> 0)))
                inputs) |]
      in
      match
        Fst_fsim.Fsim.Serial.detect c ~fault ~observe:c.Circuit.outputs stim
      with
      | Some _ -> detected := true
      | None -> ()
    end
  done;
  !detected

(* The index of the first occurrence of [needle] in [hay]. *)
let find_substring ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i =
    if i + n > h then None
    else if String.sub hay i n = needle then Some i
    else at (i + 1)
  in
  at 0

let contains_substring ~needle hay = find_substring ~needle hay <> None

(* The suite runs as _build/default/test/main.exe and the test stanza
   depends on _build/default/bin/fst.exe, so it is built first. The path
   is taken from the suite's own executable, not from the working
   directory, so the suite can run from anywhere. *)
let fst_exe =
  let build = Filename.dirname (Filename.dirname Sys.executable_name) in
  Filename.concat (Filename.concat build "bin") "fst.exe"

(* Run the [fst] executable with [args], returning the exit code and
   everything it wrote to stdout and to stderr. *)
let run_fst args =
  let capture () =
    let path = Filename.temp_file "fst-cli" ".out" in
    (path, Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600)
  in
  let out_path, out = capture () and err_path, err = capture () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process fst_exe (Array.of_list ("fst" :: args)) null out err
  in
  List.iter Unix.close [ out; err; null ];
  let _, status = Unix.waitpid [] pid in
  let slurp path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    s
  in
  let code =
    match status with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (code, slurp out_path, slurp err_path)

(* Deterministic qcheck registration: a fixed random state keeps the suite
   reproducible run to run. *)
let qcheck test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260705 |]) test
