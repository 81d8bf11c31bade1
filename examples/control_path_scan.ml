(* Control-path functional scan (the motivation of Lin et al. [6,9]):
   control logic is rich in and/or gates with shallow flip-flop to
   flip-flop paths, so most of a scan chain can be routed through mission
   logic. This example compares TPI-based functional scan against the
   conventional MUXed-scan baseline on such a circuit, then runs the scan
   chain test flow and prints the step-by-step report.

   Run with:  dune exec examples/control_path_scan.exe *)

open Fst_netlist
open Fst_tpi
open Fst_core
module Table = Fst_report.Table

let profile =
  {
    Fst_gen.Gen.name = "controller";
    gates = 900;
    ffs = 48;
    pis = 16;
    pos = 12;
    seed = 2024L;
  }

let () =
  let circuit = Fst_gen.Gen.generate profile in
  Format.printf "Mission circuit: %a@.@." Circuit.pp_stats circuit;

  (* Conventional full scan vs TPI-based functional scan. *)
  let full_scanned, full_config = Tpi.full_scan ~chains:2 circuit in
  let tpi_scanned, tpi_config = Tpi.insert ~options:{ Tpi.default_options with Tpi.chains = 2; justify_depth = 4 } circuit in
  let oh_full = Tpi.overhead full_scanned full_config ~before:circuit in
  let oh_tpi = Tpi.overhead tpi_scanned tpi_config ~before:circuit in
  let t =
    Table.create ~title:"Scan overhead: conventional MUXed scan vs TPI"
      [
        ("", Table.Left);
        ("extra gates", Table.Right);
        ("dedicated FF-FF routes", Table.Right);
        ("functional segments", Table.Right);
      ]
  in
  Table.row t
    [
      "full scan";
      Table.cell_int oh_full.Tpi.extra_gates;
      Table.cell_int oh_full.Tpi.dedicated_routes;
      Table.cell_int oh_full.Tpi.functional_segments;
    ];
  Table.row t
    [
      "TPI";
      Table.cell_int oh_tpi.Tpi.extra_gates;
      Table.cell_int oh_tpi.Tpi.dedicated_routes;
      Table.cell_int oh_tpi.Tpi.functional_segments;
    ];
  Table.print t;
  Printf.printf
    "\nTPI reuses %d mission paths as scan segments and needs %d dedicated routes\n(instead of %d), at the price of %d control test points.\n\n"
    oh_tpi.Tpi.functional_segments oh_tpi.Tpi.dedicated_routes
    oh_full.Tpi.dedicated_routes tpi_config.Scan.test_points;

  (* The performance argument: conventional scan puts a multiplexer in
     front of every flip-flop; functional scan leaves sensitized mission
     paths alone. *)
  let model = Timing.mapped_model in
  Printf.printf
    "Worst register-to-register path (mapped delay units):\n  mission %d | full scan %d | TPI %d\n(control test points also sit on mission paths, so a lavish path budget\ncan cost more delay than the scan multiplexers it avoids — see the sweep)\n\n"
    (Timing.worst_ff_path ~model circuit)
    (Timing.worst_ff_path ~model full_scanned)
    (Timing.worst_ff_path ~model tpi_scanned);

  (* The segment-cost budget trades test points against dedicated routes:
     a cheap budget keeps almost everything on multiplexers, a lavish one
     maximizes functional reuse. *)
  let t =
    Table.create ~title:"Path-cost budget sweep (gates + side pins per segment)"
      [
        ("budget", Table.Right);
        ("functional", Table.Right);
        ("routes", Table.Right);
        ("test points", Table.Right);
        ("extra gates", Table.Right);
        ("worst FF path", Table.Right);
      ]
  in
  List.iter
    (fun budget ->
      let scanned, config =
        Tpi.insert
          ~options:{ Tpi.default_options with Tpi.chains = 2; max_path_cost = budget }
          circuit
      in
      let oh = Tpi.overhead scanned config ~before:circuit in
      Table.row t
        [
          Table.cell_int budget;
          Table.cell_int oh.Tpi.functional_segments;
          Table.cell_int oh.Tpi.dedicated_routes;
          Table.cell_int config.Scan.test_points;
          Table.cell_int oh.Tpi.extra_gates;
          Table.cell_int (Timing.worst_ff_path ~model scanned);
        ])
    [ 4; 8; 12; 24 ];
  Table.print t;
  print_newline ();

  (* Now the chain itself must be tested. *)
  let r = Flow.run tpi_scanned tpi_config in
  let count = Flow.count r in
  let detected2 = count Flow.Detected_step2
  and untestable2 = count Flow.Untestable_step2 in
  let t =
    Table.create ~title:"Functional scan chain testing"
      [ ("stage", Table.Left); ("detected", Table.Right); ("untestable", Table.Right); ("left", Table.Right) ]
  in
  Table.row t
    [
      "alternating sequence (category 1)";
      Table.cell_int (Array.length r.Flow.classify.Classify.easy);
      "";
      Table.cell_int (Array.length r.Flow.classify.Classify.hard);
    ];
  Table.row t
    [
      "comb ATPG + seq fault simulation";
      Table.cell_int detected2;
      Table.cell_int untestable2;
      Table.cell_int
        (Array.length r.Flow.verdicts - detected2 - untestable2
        - count Flow.Untestable_static);
    ];
  Table.row t
    [
      "sequential ATPG (grouped models)";
      Table.cell_int (count Flow.Detected_step3);
      Table.cell_int (count Flow.Untestable_step3);
      Table.cell_int (count Flow.Undetected);
    ];
  Table.print t;
  Printf.printf
    "\n%d of %d faults affect the chain (%.1f%%); after the flow %d remain undetected.\n"
    (Flow.affecting r) (Flow.total_faults r)
    (100.0 *. float_of_int (Flow.affecting r) /. float_of_int (Flow.total_faults r))
    (List.length (Flow.faults_with r Flow.Undetected))
