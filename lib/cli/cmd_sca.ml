open Fst_tpi
module Table = Fst_report.Table

let spec =
  Spec.make ~name:"sca"
    ~summary:
      "Static analysis: scan-mode constants, implications, and fault \
       untestability proofs"
    ~args:
      [
        Common.name_arg;
        Common.scale_arg;
        Common.chains_arg;
        Spec.flag_arg [ "--json" ]
          ~doc:"Emit the full report (derivation traces, proof objects) as \
                JSON.";
      ]
    ~pos:Common.file_pos ()

(* The flow's phase-0 static analysis, standalone: build the scan-mode
   view, run constant propagation, the implication engine and the
   untestability prover over the collapsed fault universe, and print the
   statistics plus one greppable line per proven fault. Every shipped
   proof is re-checked; a mismatch fails the exit status, so the
   make-check smoke gates soundness too. *)
let run p =
  let file = match Spec.positional p with [ f ] -> Some f | _ -> None in
  let circuit =
    Common.or_die
      (Common.load ~name:(Spec.string_opt p "--name")
         ~scale:(Spec.float p "--scale" ~default:1.0)
         ~file)
  in
  let scanned, config =
    Common.or_die
      (Common.insert_chains ?file circuit (Common.chains p))
  in
  let faults =
    Fst_fault.Fault.collapse scanned (Fst_fault.Fault.universe scanned)
  in
  let view =
    Fst_netlist.View.scan_mode scanned ~constraints:config.Scan.constraints
  in
  let t = Fst_sca.Sca.analyze view ~faults in
  let s = t.Fst_sca.Sca.stats in
  if Spec.flag p "--json" then begin
    Fst_obs.Json.to_channel stdout (Fst_sca.Sca.to_json t);
    print_newline ()
  end
  else begin
    let tbl =
      Table.create ~title:"Static circuit analysis"
        [ ("metric", Table.Left); ("value", Table.Right) ]
    in
    Table.row tbl [ "nets"; Table.cell_int s.Fst_sca.Sca.nets ];
    Table.row tbl [ "target faults"; Table.cell_int s.Fst_sca.Sca.targets ];
    Table.row tbl
      [ "constant gate nets"; Table.cell_int s.Fst_sca.Sca.constants ];
    Table.row tbl
      [ "implication edges"; Table.cell_int s.Fst_sca.Sca.implications ];
    Table.row tbl [ "  learned"; Table.cell_int s.Fst_sca.Sca.learned ];
    Table.row tbl
      [ "impossible literals"; Table.cell_int s.Fst_sca.Sca.impossible ];
    Table.row tbl
      [ "dominance edges"; Table.cell_int s.Fst_sca.Sca.dominance_edges ];
    Table.row tbl
      [
        "proven untestable";
        Table.cell_int_pct s.Fst_sca.Sca.untestable ~of_:s.Fst_sca.Sca.targets;
      ];
    Table.row tbl [ "wall"; Table.cell_seconds s.Fst_sca.Sca.seconds ];
    Table.print tbl;
    List.iter
      (fun (u : Fst_sca.Sca.untestable) ->
        let kind =
          match u.Fst_sca.Sca.proof with
          | Fst_sca.Sca.Unexcitable -> "unexcitable"
          | Fst_sca.Sca.Unobservable _ -> "unobservable"
          | Fst_sca.Sca.Fire _ -> "fire-split"
          | Fst_sca.Sca.Requires _ -> "requires-literal"
          | Fst_sca.Sca.Dominated _ -> "dominated"
        in
        Printf.printf "untestable: %s (%s)\n"
          (Fst_fault.Fault.to_string scanned u.Fst_sca.Sca.fault)
          kind)
      t.Fst_sca.Sca.untestable
  end;
  let bad =
    List.filter (fun u -> not (Fst_sca.Sca.check t u)) t.Fst_sca.Sca.untestable
  in
  if bad = [] then 0
  else begin
    Printf.eprintf "fst: %d untestability proof(s) failed re-checking\n"
      (List.length bad);
    1
  end
