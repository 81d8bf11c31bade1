module Pool = Fst_exec.Pool
module Budget = Fst_exec.Budget
module Sink = Fst_obs.Sink
module Json = Fst_obs.Json

type on_error = [ `Fail_fast | `Keep_going ]

type t = {
  jobs : int;
  dist_floor_scale : float;
  comb_backtrack : int;
  seq_backtrack : int;
  final_backtrack : int;
  frames : int list;
  final_frames : int list;
  truncate_blocks : float option;
  random_blocks : int;
  random_seed : int64;
  seq_fault_seconds : float;
  final_fault_seconds : float;
  sca_prune : bool;
  time_budget : float option;
  on_error : on_error;
  sink : Sink.t;
  preflight : bool;
}

let default =
  {
    jobs = Pool.default_jobs ();
    dist_floor_scale = 1.0;
    comb_backtrack = 200;
    seq_backtrack = 400;
    final_backtrack = 2000;
    frames = [ 1; 2; 4 ];
    final_frames = [ 1; 2; 4; 8 ];
    truncate_blocks = None;
    random_blocks = 32;
    random_seed = 0x5EEDL;
    seq_fault_seconds = 0.5;
    final_fault_seconds = 2.0;
    sca_prune = true;
    time_budget = None;
    on_error = `Fail_fast;
    sink = Sink.null;
    preflight = false;
  }

let with_jobs jobs t = { t with jobs = max 1 jobs }
let with_dist_floor_scale dist_floor_scale t = { t with dist_floor_scale }
let with_comb_backtrack comb_backtrack t = { t with comb_backtrack }
let with_seq_backtrack seq_backtrack t = { t with seq_backtrack }
let with_final_backtrack final_backtrack t = { t with final_backtrack }
let with_frames frames t = { t with frames }
let with_final_frames final_frames t = { t with final_frames }
let with_truncate_blocks truncate_blocks t = { t with truncate_blocks }
let with_random_blocks random_blocks t = { t with random_blocks }
let with_random_seed random_seed t = { t with random_seed }
let with_seq_fault_seconds seq_fault_seconds t = { t with seq_fault_seconds }

let with_final_fault_seconds final_fault_seconds t =
  { t with final_fault_seconds }

let with_sca_prune sca_prune t = { t with sca_prune }
let with_time_budget time_budget t = { t with time_budget }
let with_on_error on_error t = { t with on_error }
let with_sink sink t = { t with sink }
let with_preflight preflight t = { t with preflight }

let on_error_to_string : on_error -> string = function
  | `Fail_fast -> "fail-fast"
  | `Keep_going -> "keep-going"

let on_error_of_string = function
  | "fail-fast" -> Some `Fail_fast
  | "keep-going" -> Some `Keep_going
  | _ -> None

(* The semantic fingerprint covers exactly the knobs that change what a
   flow computes. Jobs (step-2 identical, step-3 totals identical),
   sink/preflight (pure observers) and time_budget/on_error (degradation
   policy) are all excluded, so a cached artifact produced at any
   parallelism satisfies a lookup from any other. *)
let fingerprint t =
  let key =
    ( t.dist_floor_scale,
      t.comb_backtrack,
      t.seq_backtrack,
      t.final_backtrack,
      t.frames,
      t.final_frames,
      t.truncate_blocks,
      (t.random_blocks, t.random_seed),
      (t.seq_fault_seconds, t.final_fault_seconds),
      t.sca_prune )
  in
  Digest.to_hex (Digest.string (Marshal.to_string key []))

let budget t =
  match t.time_budget with
  | None -> Budget.unlimited
  | Some s -> Budget.of_seconds s

let of_cli ?(jobs = 0) ?(scale = 1.0) ?time_budget ?on_error
    ?(preflight = false) ?(sink = Sink.null) () =
  let jobs = if jobs <= 0 then Pool.default_jobs () else jobs in
  (* Budgeted runs default to keep-going: a run that is already prepared
     to ship partial coverage under a deadline should not throw the
     partial result away over one poison fault group. An explicit flag
     always wins. *)
  let on_error =
    match on_error with
    | Some p -> p
    | None -> if time_budget <> None then `Keep_going else `Fail_fast
  in
  {
    default with
    jobs;
    dist_floor_scale = scale;
    time_budget;
    on_error;
    preflight;
    sink;
  }

let to_json t =
  Json.Obj
    [
      ("jobs", Json.Int t.jobs);
      ("dist_floor_scale", Json.Float t.dist_floor_scale);
      ("comb_backtrack", Json.Int t.comb_backtrack);
      ("seq_backtrack", Json.Int t.seq_backtrack);
      ("final_backtrack", Json.Int t.final_backtrack);
      ("frames", Json.List (List.map (fun f -> Json.Int f) t.frames));
      ( "final_frames",
        Json.List (List.map (fun f -> Json.Int f) t.final_frames) );
      ( "truncate_blocks",
        match t.truncate_blocks with
        | None -> Json.Null
        | Some f -> Json.Float f );
      ("random_blocks", Json.Int t.random_blocks);
      ("random_seed", Json.String (Printf.sprintf "0x%Lx" t.random_seed));
      ("seq_fault_seconds", Json.Float t.seq_fault_seconds);
      ("final_fault_seconds", Json.Float t.final_fault_seconds);
      ("sca_prune", Json.Bool t.sca_prune);
      ( "time_budget",
        match t.time_budget with None -> Json.Null | Some s -> Json.Float s
      );
      ("on_error", Json.String (on_error_to_string t.on_error));
      ("preflight", Json.Bool t.preflight);
    ]

(* --- of_json: the exact inverse of to_json ----------------------------- *)

(* Typed field decoders. [to_json] emits Float for every float field, but
   hand-written payloads (the serve protocol's submit bodies) naturally
   spell whole numbers as ints, so float fields accept both. *)
let d_int k = function
  | Json.Int i -> Ok i
  | _ -> Error (Printf.sprintf "config: %S expects an integer" k)

let d_float k = function
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> Error (Printf.sprintf "config: %S expects a number" k)

let d_bool k = function
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "config: %S expects a boolean" k)

(* Upper bounds on the sizes a decoded config can ask for: each frame
   count is one unrolled copy of the circuit, each random block one
   fault-simulated sequence. Far above the defaults (8 and 32). *)
let max_frames = 64
let max_random_blocks = 10_000

let in_range k ~lo ~hi i =
  if i >= lo && i <= hi then Ok i
  else Error (Printf.sprintf "config: %S must be in [%d, %d], got %d" k lo hi i)

(* Frame counts and [random_blocks] are range-checked here, so a served
   job never starts with a value the flow would trip over or that would
   make it allocate without bound. *)
let d_frames k = function
  | Json.List l ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Json.Int i :: rest -> (
        match in_range k ~lo:1 ~hi:max_frames i with
        | Ok i -> go (i :: acc) rest
        | Error _ as e -> e)
      | _ :: _ ->
        Error (Printf.sprintf "config: %S expects a list of integers" k)
    in
    go [] l
  | _ -> Error (Printf.sprintf "config: %S expects a list of integers" k)

let d_float_opt k = function
  | Json.Null -> Ok None
  | j -> Result.map Option.some (d_float k j)

let d_int64 k = function
  | Json.String s -> (
    match Int64.of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "config: %S expects an integer string" k))
  | Json.Int i -> Ok (Int64.of_int i)
  | _ -> Error (Printf.sprintf "config: %S expects an integer string" k)

let ( let* ) = Result.bind

let set_field t k v =
  match k with
  | "jobs" ->
    let* i = d_int k v in
    Ok (with_jobs i t)
  | "dist_floor_scale" ->
    let* f = d_float k v in
    Ok { t with dist_floor_scale = f }
  | "comb_backtrack" ->
    let* i = d_int k v in
    Ok { t with comb_backtrack = i }
  | "seq_backtrack" ->
    let* i = d_int k v in
    Ok { t with seq_backtrack = i }
  | "final_backtrack" ->
    let* i = d_int k v in
    Ok { t with final_backtrack = i }
  | "frames" ->
    let* l = d_frames k v in
    Ok { t with frames = l }
  | "final_frames" ->
    let* l = d_frames k v in
    Ok { t with final_frames = l }
  | "truncate_blocks" ->
    let* o = d_float_opt k v in
    Ok { t with truncate_blocks = o }
  | "random_blocks" ->
    let* i = Result.bind (d_int k v) (in_range k ~lo:0 ~hi:max_random_blocks) in
    Ok { t with random_blocks = i }
  | "random_seed" ->
    let* s = d_int64 k v in
    Ok { t with random_seed = s }
  | "seq_fault_seconds" ->
    let* f = d_float k v in
    Ok { t with seq_fault_seconds = f }
  | "final_fault_seconds" ->
    let* f = d_float k v in
    Ok { t with final_fault_seconds = f }
  | "sca_prune" ->
    let* b = d_bool k v in
    Ok { t with sca_prune = b }
  | "time_budget" ->
    let* o = d_float_opt k v in
    Ok { t with time_budget = o }
  | "on_error" -> (
    match v with
    | Json.String s -> (
      match on_error_of_string s with
      | Some p -> Ok { t with on_error = p }
      | None ->
        Error
          (Printf.sprintf
             "config: unknown on_error %S (expected \"fail-fast\" or \
              \"keep-going\")"
             s))
    | _ -> Error "config: \"on_error\" expects a string")
  | "preflight" ->
    let* b = d_bool k v in
    Ok { t with preflight = b }
  | _ -> Error (Printf.sprintf "config: unknown key %S" k)

let of_json = function
  | Json.Obj kvs ->
    List.fold_left
      (fun acc (k, v) ->
        let* t = acc in
        set_field t k v)
      (Ok default) kvs
  | _ -> Error "config: expected a JSON object"

let equal_semantic a b =
  a.jobs = b.jobs
  && a.dist_floor_scale = b.dist_floor_scale
  && a.comb_backtrack = b.comb_backtrack
  && a.seq_backtrack = b.seq_backtrack
  && a.final_backtrack = b.final_backtrack
  && a.frames = b.frames
  && a.final_frames = b.final_frames
  && a.truncate_blocks = b.truncate_blocks
  && a.random_blocks = b.random_blocks
  && a.random_seed = b.random_seed
  && a.seq_fault_seconds = b.seq_fault_seconds
  && a.final_fault_seconds = b.final_fault_seconds
  && a.sca_prune = b.sca_prune
  && a.time_budget = b.time_budget
  && a.on_error = b.on_error
  && a.preflight = b.preflight
