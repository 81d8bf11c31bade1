open Fst_core

(* The unified Config surface: defaults, setters, the CLI constructor and
   the JSON echo. *)

let test_defaults () =
  (* Config.default must describe the same flow the historical defaults
     did. *)
  let c = Config.default in
  Alcotest.(check int) "comb_backtrack" 200 c.Config.comb_backtrack;
  Alcotest.(check int) "seq_backtrack" 400 c.Config.seq_backtrack;
  Alcotest.(check int) "final_backtrack" 2000 c.Config.final_backtrack;
  Alcotest.(check (list int)) "frames" [ 1; 2; 4 ] c.Config.frames;
  Alcotest.(check (list int)) "final_frames" [ 1; 2; 4; 8 ] c.Config.final_frames;
  Alcotest.(check int) "random_blocks" 32 c.Config.random_blocks;
  Alcotest.(check bool) "no budget" true (c.Config.time_budget = None);
  Alcotest.(check bool) "no preflight" false c.Config.preflight;
  Alcotest.(check bool) "sca prune on" true c.Config.sca_prune

let test_setters () =
  let c =
    Config.(
      default |> with_jobs 3 |> with_comb_backtrack 7 |> with_time_budget (Some 1.5)
      |> with_preflight true)
  in
  Alcotest.(check int) "jobs" 3 c.Config.jobs;
  Alcotest.(check int) "comb_backtrack" 7 c.Config.comb_backtrack;
  Alcotest.(check bool) "budget" true (c.Config.time_budget = Some 1.5);
  Alcotest.(check bool) "preflight" true c.Config.preflight;
  Alcotest.(check bool) "sca prune off" false
    (Config.with_sca_prune false c).Config.sca_prune;
  (* Setters are functional: default is untouched. *)
  Alcotest.(check int) "default comb" 200 Config.default.Config.comb_backtrack;
  (* jobs clamps to at least one domain. *)
  Alcotest.(check int) "jobs clamp" 1 (Config.with_jobs 0 c).Config.jobs

let test_of_cli () =
  let c = Config.of_cli ~jobs:2 ~scale:0.5 ~preflight:true () in
  Alcotest.(check int) "jobs" 2 c.Config.jobs;
  Alcotest.(check bool) "scale" true (c.Config.dist_floor_scale = 0.5);
  Alcotest.(check bool) "preflight" true c.Config.preflight;
  (* jobs <= 0 means all cores. *)
  Alcotest.(check bool) "jobs defaulted" true
    ((Config.of_cli ~jobs:0 ()).Config.jobs >= 1)

let test_to_json () =
  let j =
    Config.to_json
      Config.(default |> with_time_budget (Some 2.0))
  in
  let s = Fst_obs.Json.to_string j in
  (* Round-trips through the strict parser and carries the key fields. *)
  ignore (Fst_obs.Json.of_string s);
  let member k =
    match Fst_obs.Json.member k j with
    | Some v -> v
    | None -> Alcotest.failf "missing config key %s" k
  in
  Alcotest.(check bool) "budget" true
    (member "time_budget" = Fst_obs.Json.Float 2.0);
  Alcotest.(check bool) "frames present" true (member "frames" <> Fst_obs.Json.Null);
  Alcotest.(check bool) "sca_prune present" true
    (member "sca_prune" = Fst_obs.Json.Bool true)

(* --- of_json: the exact inverse of to_json ----------------------------- *)

module Q = QCheck

(* An arbitrary semantic config: every field to_json serializes gets a
   chance to take a non-default value. *)
let gen_config =
  let open Q.Gen in
  let frames = list_size (int_range 1 4) (int_range 1 16) in
  let seed = map Int64.of_int (int_range 0 0x3FFFFFFF) in
  let budget = opt (map (fun i -> float_of_int i /. 4.0) (int_range 1 400)) in
  int_range 1 8 >>= fun jobs ->
  int_range 1 5000 >>= fun comb ->
  int_range 1 5000 >>= fun seq ->
  int_range 1 5000 >>= fun final ->
  frames >>= fun fr ->
  frames >>= fun ffr ->
  budget >>= fun trunc ->
  int_range 0 64 >>= fun rb ->
  seed >>= fun rs ->
  bool >>= fun prune ->
  budget >>= fun tb ->
  oneofl [ `Fail_fast; `Keep_going ] >>= fun on_error ->
  bool >>= fun preflight ->
  return
    Config.(
      default |> with_jobs jobs |> with_comb_backtrack comb
      |> with_seq_backtrack seq |> with_final_backtrack final
      |> with_frames fr |> with_final_frames ffr
      |> with_truncate_blocks trunc |> with_random_blocks rb
      |> with_random_seed rs |> with_sca_prune prune
      |> with_time_budget tb |> with_on_error on_error
      |> with_preflight preflight)

let prop_of_json_round_trip =
  Q.Test.make ~count:200 ~name:"of_json (to_json c) = c"
    (Q.make gen_config) (fun c ->
      match Config.of_json (Config.to_json c) with
      | Ok c' ->
        Config.equal_semantic c c'
        && c.Config.jobs = c'.Config.jobs
        && c.Config.time_budget = c'.Config.time_budget
        && c.Config.on_error = c'.Config.on_error
        && c.Config.preflight = c'.Config.preflight
      | Error e -> Q.Test.fail_report ("of_json rejected its own echo: " ^ e))

let test_of_json_errors () =
  let rejected label j =
    match Config.of_json j with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (label ^ ": accepted")
  in
  rejected "unknown key" (Fst_obs.Json.Obj [ ("warp_factor", Fst_obs.Json.Int 9) ]);
  rejected "wrong type" (Fst_obs.Json.Obj [ ("jobs", Fst_obs.Json.String "two") ]);
  rejected "not an object" (Fst_obs.Json.List []);
  (* Out-of-range values fail at decode with an error naming the key,
     instead of failing a served job deep inside the flow. *)
  List.iter
    (fun (k, v) ->
      match Config.of_json (Fst_obs.Json.Obj [ (k, v) ]) with
      | Ok _ -> Alcotest.failf "%s out of range: accepted" k
      | Error e ->
        if not (Helpers.contains_substring ~needle:(Printf.sprintf "%S" k) e)
        then Alcotest.failf "%s out of range: error %S does not name it" k e)
    Fst_obs.Json.
      [
        ("frames", List [ Int 0 ]);
        ("frames", List [ Int 1; Int (-1) ]);
        ("final_frames", List [ Int (-2) ]);
        ("random_blocks", Int (-5));
        ("frames", List [ Int 1; Int 65 ]);
        ("final_frames", List [ Int 1_000_000_000 ]);
        ("random_blocks", Int 10_001);
      ];
  (* Keys of knobs that no longer exist are unknown keys like any other,
     and the error names the key. *)
  List.iter
    (fun (k, v) ->
      match Config.of_json (Fst_obs.Json.Obj [ (k, v) ]) with
      | Ok _ -> Alcotest.failf "removed key %s: accepted" k
      | Error e ->
        if not (Helpers.contains_substring ~needle:k e) then
          Alcotest.failf "removed key %s: error %S does not name it" k e)
    [
      ("engine", Fst_obs.Json.String "auto");
      ("sca_implications", Fst_obs.Json.Bool false);
      ("weighted_random", Fst_obs.Json.Bool false);
      ("capture_curve", Fst_obs.Json.Bool true);
      ("scan_backtrack", Fst_obs.Json.Int 200);
      ("scan_random_blocks", Fst_obs.Json.Int 32);
      ("scan_random_seed", Fst_obs.Json.String "0xcafe");
    ];
  (* Absent fields keep their defaults: an empty object is Config.default. *)
  match Config.of_json (Fst_obs.Json.Obj []) with
  | Ok c ->
    Alcotest.(check bool) "empty object is default" true
      (Config.equal_semantic c Config.default)
  | Error e -> Alcotest.failf "empty object rejected: %s" e

let test_of_json_accepts_ints () =
  (* Hand-written submit payloads spell whole-number floats as ints. *)
  match
    Config.of_json
      (Fst_obs.Json.Obj
         [
           ("time_budget", Fst_obs.Json.Int 5);
           ("dist_floor_scale", Fst_obs.Json.Int 1);
           ("random_seed", Fst_obs.Json.Int 42);
         ])
  with
  | Ok c ->
    Alcotest.(check bool) "budget" true (c.Config.time_budget = Some 5.0);
    Alcotest.(check bool) "seed" true (c.Config.random_seed = 42L)
  | Error e -> Alcotest.failf "int spellings rejected: %s" e

let suite =
  [
    Alcotest.test_case "defaults" `Quick test_defaults;
    Alcotest.test_case "functional setters" `Quick test_setters;
    Alcotest.test_case "of_cli" `Quick test_of_cli;
    Alcotest.test_case "to_json round-trips" `Quick test_to_json;
    Helpers.qcheck prop_of_json_round_trip;
    Alcotest.test_case "of_json rejects malformed" `Quick test_of_json_errors;
    Alcotest.test_case "of_json accepts int spellings" `Quick
      test_of_json_accepts_ints;
  ]
