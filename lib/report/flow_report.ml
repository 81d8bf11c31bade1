module Flow = Fst_core.Flow
module Classify = Fst_core.Classify
module Json = Fst_obs.Json

type phase_aborts = Flow.phase_aborts = {
  phase : string;
  budget_exhausted : bool;
  atpg_aborts : int;
  cancelled_groups : int;
  failed : int;
}

type t = {
  circuit : string;
  total : int;
  affecting : int;
  easy : int;
  hard : int;
  untestable_static : int;
  step2_detected : int;
  step2_untestable : int;
  step2_vectors : int;
  step2_cpu_s : float;
  step3_detected : int;
  step3_untestable : int;
  step3_group_circuits : int;
  step3_final_circuits : int;
  step3_cpu_s : float;
  podem_runs : int;
  podem_backtracks : int;
  podem_decisions : int;
  podem_implications : int;
  podem_aborted_limit : int;
  podem_aborted_deadline : int;
  seq_runs : int;
  seq_backtracks : int;
  undetected : string list;
  failed : string list;
  aborted_faults : int;
  failed_faults : int;
  phases : phase_aborts list;
}

let of_result (r : Flow.result) =
  let fault_names v =
    List.map (Fst_fault.Fault.to_string r.Flow.scanned) (Flow.faults_with r v)
  in
  let count = Flow.count r in
  let a = r.Flow.atpg in
  {
    circuit = r.Flow.scanned.Fst_netlist.Circuit.name;
    total = Flow.total_faults r;
    affecting = Flow.affecting r;
    easy = Array.length r.Flow.classify.Classify.easy;
    hard = Array.length r.Flow.classify.Classify.hard;
    untestable_static = count Flow.Untestable_static;
    step2_detected = count Flow.Detected_step2;
    step2_untestable = count Flow.Untestable_step2;
    step2_vectors = r.Flow.step2.Flow.vectors;
    step2_cpu_s =
      r.Flow.step2.Flow.atpg_seconds +. r.Flow.step2.Flow.fsim_seconds;
    step3_detected = count Flow.Detected_step3;
    step3_untestable = count Flow.Untestable_step3;
    step3_group_circuits = r.Flow.step3.Flow.group_circuits;
    step3_final_circuits = r.Flow.step3.Flow.final_circuits;
    step3_cpu_s = r.Flow.step3.Flow.seconds;
    podem_runs = a.Flow.podem_runs;
    podem_backtracks = a.Flow.podem_backtracks;
    podem_decisions = a.Flow.podem_decisions;
    podem_implications = a.Flow.podem_implications;
    podem_aborted_limit = a.Flow.podem_aborted_limit;
    podem_aborted_deadline = a.Flow.podem_aborted_deadline;
    seq_runs = a.Flow.seq_runs;
    seq_backtracks = a.Flow.seq_backtracks;
    undetected = fault_names Flow.Undetected;
    failed = fault_names Flow.Failed;
    aborted_faults = count Flow.Aborted;
    failed_faults = count Flow.Failed;
    phases = r.Flow.aborts;
  }

let verdict_mismatches t r =
  let count = Flow.count r in
  List.filter_map
    (fun (name, reported, v) ->
      if reported = count v then None
      else Some (Printf.sprintf "%s=%d verdicts=%d" name reported (count v)))
    [
      ("step2_detected", t.step2_detected, Flow.Detected_step2);
      ("step2_untestable", t.step2_untestable, Flow.Untestable_step2);
      ("step3_detected", t.step3_detected, Flow.Detected_step3);
      ("step3_untestable", t.step3_untestable, Flow.Untestable_step3);
      ("untestable_static", t.untestable_static, Flow.Untestable_static);
      ("aborted_faults", t.aborted_faults, Flow.Aborted);
      ("failed_faults", t.failed_faults, Flow.Failed);
      ("undetected", List.length t.undetected, Flow.Undetected);
    ]

let budget_exhausted t = List.exists (fun p -> p.budget_exhausted) t.phases
let atpg_aborts t = List.fold_left (fun n p -> n + p.atpg_aborts) 0 t.phases

let cancelled_groups t =
  List.fold_left (fun n p -> n + p.cancelled_groups) 0 t.phases

let to_text r =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let t =
    Table.create ~title:"Functional scan chain testing report"
      [ ("metric", Table.Left); ("value", Table.Right) ]
  in
  Table.row t [ "total collapsed faults"; Table.cell_int r.total ];
  Table.row t
    [ "affecting the chain"; Table.cell_int_pct r.affecting ~of_:r.total ];
  Table.row t [ "  category 1 (easy)"; Table.cell_int r.easy ];
  Table.row t [ "  category 2 (hard)"; Table.cell_int r.hard ];
  Table.rule t;
  Table.row t
    [ "statically untestable"; Table.cell_int r.untestable_static ];
  Table.row t [ "step 2 detected"; Table.cell_int r.step2_detected ];
  Table.row t [ "step 2 untestable"; Table.cell_int r.step2_untestable ];
  Table.row t [ "step 2 vectors"; Table.cell_int r.step2_vectors ];
  Table.row t [ "step 2 CPU"; Table.cell_seconds r.step2_cpu_s ];
  Table.rule t;
  Table.row t [ "step 3 detected"; Table.cell_int r.step3_detected ];
  Table.row t [ "step 3 untestable"; Table.cell_int r.step3_untestable ];
  Table.row t
    [
      "step 3 circuits";
      Printf.sprintf "%d+%d" r.step3_group_circuits r.step3_final_circuits;
    ];
  Table.row t [ "step 3 CPU"; Table.cell_seconds r.step3_cpu_s ];
  Table.rule t;
  Table.row t [ "PODEM runs"; Table.cell_int r.podem_runs ];
  Table.row t [ "PODEM backtracks"; Table.cell_int r.podem_backtracks ];
  Table.row t [ "PODEM decisions"; Table.cell_int r.podem_decisions ];
  Table.row t [ "PODEM implications"; Table.cell_int r.podem_implications ];
  Table.row t
    [
      "PODEM aborts (limit/deadline)";
      Printf.sprintf "%d/%d" r.podem_aborted_limit r.podem_aborted_deadline;
    ];
  Table.row t [ "seq ATPG runs"; Table.cell_int r.seq_runs ];
  Table.row t [ "seq ATPG backtracks"; Table.cell_int r.seq_backtracks ];
  Table.rule t;
  Table.row t
    [
      "undetected";
      Table.cell_int_pct (List.length r.undetected) ~of_:r.total;
    ];
  (if budget_exhausted r then begin
     Table.rule t;
     Table.row t [ "aborted (budget)"; Table.cell_int r.aborted_faults ];
     Table.row t [ "ATPG aborts"; Table.cell_int (atpg_aborts r) ];
     Table.row t [ "cancelled groups"; Table.cell_int (cancelled_groups r) ]
   end);
  (if r.failed_faults > 0 then begin
     Table.rule t;
     Table.row t [ "failed (quarantined)"; Table.cell_int r.failed_faults ]
   end);
  Buffer.add_string buf (Table.render t);
  (* One greppable line per phase for scripts and the degradation smoke. *)
  List.iter
    (fun p ->
      if p.budget_exhausted || p.atpg_aborts > 0 || p.cancelled_groups > 0
         || p.failed > 0 then
        line
          "aborts: phase=%s budget_exhausted=%b atpg_aborts=%d \
           cancelled_groups=%d failed=%d"
          p.phase p.budget_exhausted p.atpg_aborts p.cancelled_groups p.failed)
    r.phases;
  if r.aborted_faults > 0 then line "aborts: aborted_faults=%d" r.aborted_faults;
  if r.failed_faults > 0 then line "aborts: failed_faults=%d" r.failed_faults;
  List.iter (fun f -> line "undetected: %s" f) r.undetected;
  List.iter (fun f -> line "failed: %s" f) r.failed;
  Buffer.contents buf

(* --- JSON -------------------------------------------------------------- *)

let phase_to_json p =
  Json.Obj
    [
      ("phase", Json.String p.phase);
      ("budget_exhausted", Json.Bool p.budget_exhausted);
      ("atpg_aborts", Json.Int p.atpg_aborts);
      ("cancelled_groups", Json.Int p.cancelled_groups);
      ("failed", Json.Int p.failed);
    ]

let to_json r =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("circuit", Json.String r.circuit);
      ("total", Json.Int r.total);
      ("affecting", Json.Int r.affecting);
      ("easy", Json.Int r.easy);
      ("hard", Json.Int r.hard);
      ("untestable_static", Json.Int r.untestable_static);
      ("step2_detected", Json.Int r.step2_detected);
      ("step2_untestable", Json.Int r.step2_untestable);
      ("step2_vectors", Json.Int r.step2_vectors);
      ("step2_cpu_s", Json.Float r.step2_cpu_s);
      ("step3_detected", Json.Int r.step3_detected);
      ("step3_untestable", Json.Int r.step3_untestable);
      ("step3_group_circuits", Json.Int r.step3_group_circuits);
      ("step3_final_circuits", Json.Int r.step3_final_circuits);
      ("step3_cpu_s", Json.Float r.step3_cpu_s);
      ("podem_runs", Json.Int r.podem_runs);
      ("podem_backtracks", Json.Int r.podem_backtracks);
      ("podem_decisions", Json.Int r.podem_decisions);
      ("podem_implications", Json.Int r.podem_implications);
      ("podem_aborted_limit", Json.Int r.podem_aborted_limit);
      ("podem_aborted_deadline", Json.Int r.podem_aborted_deadline);
      ("seq_runs", Json.Int r.seq_runs);
      ("seq_backtracks", Json.Int r.seq_backtracks);
      ( "undetected",
        Json.List (List.map (fun f -> Json.String f) r.undetected) );
      ("failed", Json.List (List.map (fun f -> Json.String f) r.failed));
      ("aborted_faults", Json.Int r.aborted_faults);
      ("failed_faults", Json.Int r.failed_faults);
      ("phases", Json.List (List.map phase_to_json r.phases));
    ]

let ( let* ) = Result.bind

let field j k =
  match Json.member k j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "report: missing field %S" k)

let f_int j k =
  let* v = field j k in
  match v with
  | Json.Int i -> Ok i
  | _ -> Error (Printf.sprintf "report: %S expects an integer" k)

let f_float j k =
  let* v = field j k in
  match v with
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> Error (Printf.sprintf "report: %S expects a number" k)

let f_bool j k =
  let* v = field j k in
  match v with
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "report: %S expects a boolean" k)

let f_string j k =
  let* v = field j k in
  match v with
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "report: %S expects a string" k)

let f_string_list j k =
  let* v = field j k in
  match v with
  | Json.List l ->
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        match e with
        | Json.String s -> Ok (s :: acc)
        | _ -> Error (Printf.sprintf "report: %S expects strings" k))
      (Ok []) l
    |> Result.map List.rev
  | _ -> Error (Printf.sprintf "report: %S expects a list" k)

let phase_of_json j =
  let* phase = f_string j "phase" in
  let* budget_exhausted = f_bool j "budget_exhausted" in
  let* atpg_aborts = f_int j "atpg_aborts" in
  let* cancelled_groups = f_int j "cancelled_groups" in
  let* failed = f_int j "failed" in
  Ok { phase; budget_exhausted; atpg_aborts; cancelled_groups; failed }

let of_json j =
  let* version = f_int j "version" in
  if version <> 1 then
    Error (Printf.sprintf "report: unsupported version %d" version)
  else
    let* circuit = f_string j "circuit" in
    let* total = f_int j "total" in
    let* affecting = f_int j "affecting" in
    let* easy = f_int j "easy" in
    let* hard = f_int j "hard" in
    let* untestable_static = f_int j "untestable_static" in
    let* step2_detected = f_int j "step2_detected" in
    let* step2_untestable = f_int j "step2_untestable" in
    let* step2_vectors = f_int j "step2_vectors" in
    let* step2_cpu_s = f_float j "step2_cpu_s" in
    let* step3_detected = f_int j "step3_detected" in
    let* step3_untestable = f_int j "step3_untestable" in
    let* step3_group_circuits = f_int j "step3_group_circuits" in
    let* step3_final_circuits = f_int j "step3_final_circuits" in
    let* step3_cpu_s = f_float j "step3_cpu_s" in
    let* podem_runs = f_int j "podem_runs" in
    let* podem_backtracks = f_int j "podem_backtracks" in
    let* podem_decisions = f_int j "podem_decisions" in
    let* podem_implications = f_int j "podem_implications" in
    let* podem_aborted_limit = f_int j "podem_aborted_limit" in
    let* podem_aborted_deadline = f_int j "podem_aborted_deadline" in
    let* seq_runs = f_int j "seq_runs" in
    let* seq_backtracks = f_int j "seq_backtracks" in
    let* undetected = f_string_list j "undetected" in
    let* failed = f_string_list j "failed" in
    let* aborted_faults = f_int j "aborted_faults" in
    let* failed_faults = f_int j "failed_faults" in
    let* phases_json = field j "phases" in
    let* phases =
      match phases_json with
      | Json.List l ->
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            let* p = phase_of_json e in
            Ok (p :: acc))
          (Ok []) l
        |> Result.map List.rev
      | _ -> Error "report: \"phases\" expects a list"
    in
    Ok
      {
        circuit;
        total;
        affecting;
        easy;
        hard;
        untestable_static;
        step2_detected;
        step2_untestable;
        step2_vectors;
        step2_cpu_s;
        step3_detected;
        step3_untestable;
        step3_group_circuits;
        step3_final_circuits;
        step3_cpu_s;
        podem_runs;
        podem_backtracks;
        podem_decisions;
        podem_implications;
        podem_aborted_limit;
        podem_aborted_deadline;
        seq_runs;
        seq_backtracks;
        undetected;
        failed;
        aborted_faults;
        failed_faults;
        phases;
      }
