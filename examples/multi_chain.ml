(* Multiple scan chains: larger designs split their flip-flops over several
   chains to keep shift time down. A fault can then touch one chain, or
   several; faults touching more than one chain always get an individual
   sequential-ATPG model (paper, section 5), while the rest are grouped by
   the distance parameters.

   This example builds a four-chain design, classifies its faults, and
   prints the chain-location footprints and grouping statistics that drive
   step 3.

   Run with:  dune exec examples/multi_chain.exe *)

open Fst_netlist
open Fst_tpi
open Fst_core
module Table = Fst_report.Table

let profile =
  {
    Fst_gen.Gen.name = "datapath";
    gates = 1400;
    ffs = 96;
    pis = 24;
    pos = 16;
    seed = 77L;
  }

let () =
  let circuit = Fst_gen.Gen.generate profile in
  let scanned, config = Tpi.insert ~options:{ Tpi.default_options with Tpi.chains = 4; justify_depth = 4 } circuit in
  Format.printf "%a@.%a@.@." Circuit.pp_stats scanned (Scan.pp_config scanned) config;

  let faults = Fst_fault.Fault.collapse scanned (Fst_fault.Fault.universe scanned) in
  let cls = Classify.run scanned config faults in

  (* Footprints of the hard faults. *)
  let footprints =
    Array.to_list cls.Classify.hard
    |> List.mapi (fun k i ->
           let info = cls.Classify.infos.(i) in
           Group.footprint_of ~index:k
             ~locations:
               (List.map (fun (c, s, _) -> (c, s)) info.Classify.locations))
  in
  let multi_chain, single_chain =
    List.partition (fun fp -> List.length fp.Group.spans > 1) footprints
  in
  Printf.printf "%d hard faults: %d touch a single chain, %d touch several chains\n"
    (List.length footprints) (List.length single_chain)
    (List.length multi_chain);

  (* Per-chain fault pressure. *)
  let t =
    Table.create ~title:"Chain-affecting faults per chain"
      [ ("chain", Table.Right); ("length", Table.Right); ("#hard touching it", Table.Right) ]
  in
  Array.iter
    (fun ch ->
      let touching =
        List.length
          (List.filter
             (fun fp -> List.mem_assoc ch.Scan.index fp.Group.spans)
             footprints)
      in
      Table.row t
        [
          Table.cell_int ch.Scan.index;
          Table.cell_int (Array.length ch.Scan.ffs);
          Table.cell_int touching;
        ])
    config.Scan.chains;
  Table.print t;

  (* Grouping with the paper's distance parameters. *)
  let maxsize = Sequences.max_chain_length config in
  let dist = Group.paper_params ~maxsize ~floor_scale:0.1 in
  let groups = Group.make dist footprints in
  let solos, shareds, clusters =
    List.fold_left
      (fun (s, h, c) g ->
        match g with
        | Group.Solo _ -> (s + 1, h, c)
        | Group.Shared _ -> (s, h + 1, c)
        | Group.Cluster _ -> (s, h, c + 1))
      (0, 0, 0) groups
  in
  Printf.printf
    "\nGrouping (LARGE=%d MED=%d DIST=%d): %d solo models, %d shared models, %d clusters\n"
    dist.Group.large dist.Group.med dist.Group.dist solos shareds clusters;

  (* Run the flow end to end. *)
  let r =
    Flow.run
      ~config:Config.(default |> with_dist_floor_scale 0.1)
      scanned config
  in
  Printf.printf
    "\nFlow: step2 detected %d / untestable %d; step3 detected %d / untestable %d; undetected %d\n"
    (Flow.count r Flow.Detected_step2)
    (Flow.count r Flow.Untestable_step2)
    (Flow.count r Flow.Detected_step3)
    (Flow.count r Flow.Untestable_step3)
    (Flow.count r Flow.Undetected)
