(* One flow run → one coherent artifact directory:

     trace.json    Chrome trace_event (Perfetto-loadable)
     events.jsonl  structured event log, flushed per line
     metrics.prom  OpenMetrics text exposition
     run.json      the summary Analyze consumes (schema "fst-run/2")

   The handle owns every channel of the sink it hands out, so the flow
   stays a pure observer: the caller threads [sink h] through the run
   and calls [write] once at the end. *)

let schema_version = "fst-run/2"

type t = {
  dir : string;
  metrics : Metrics.t;
  trace : Trace.t;
  events : Events.t;
  events_oc : out_channel;
  t_start : float;
}

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  go dir

let ( / ) = Filename.concat

let create ~dir =
  mkdir_p dir;
  let events_oc = open_out (dir / "events.jsonl") in
  {
    dir;
    metrics = Metrics.create ();
    trace = Trace.create ();
    events = Events.to_channel events_oc;
    events_oc;
    t_start = Unix.gettimeofday ();
  }

let sink ?progress t =
  Sink.create ~metrics:t.metrics ~trace:t.trace ~events:t.events ?progress ()

(* ---- run.json ------------------------------------------------------ *)

let json_float f = if Float.is_finite f then Json.Float f else Json.Null

(* Quantile over a bucket list, same estimate Metrics.quantile gives:
   the upper bound of the bucket where the cumulative count reaches
   ceil (q * n). *)
let quantile_of_buckets buckets n q =
  if n = 0 then Float.nan
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int n)) in
      if r < 1 then 1 else if r > n then n else r
    in
    let rec go acc = function
      | [] -> Float.nan
      | (ub, c) :: rest -> if acc + c >= rank then ub else go (acc + c) rest
    in
    go 0 buckets
  end

let hist_json (h : Metrics.hist_snapshot) =
  let q p = json_float (quantile_of_buckets h.Metrics.h_buckets h.Metrics.h_count p) in
  Json.Obj
    [
      ("count", Json.Int h.Metrics.h_count);
      ("sum", json_float h.Metrics.h_sum);
      ("min", json_float h.Metrics.h_min);
      ("max", json_float h.Metrics.h_max);
      ("p50", q 0.50);
      ("p90", q 0.90);
      ("p99", q 0.99);
      ( "buckets",
        Json.List
          (List.map
             (fun (ub, c) -> Json.List [ json_float ub; Json.Int c ])
             h.Metrics.h_buckets) );
    ]

(* Per-phase wall seconds from the "flow.<phase>.wall_s" gauges the flow
   emits, keyed by the bare phase name. *)
let phases_of_snapshot snap =
  List.filter_map
    (fun (name, v) ->
      match v with
      | Metrics.Gauge_v g
        when String.length name > 12
             && String.sub name 0 5 = "flow."
             && Filename.check_suffix name ".wall_s" ->
          let phase = String.sub name 5 (String.length name - 12) in
          Some (phase, json_float g)
      | _ -> None)
    snap

let run_json ?(config = Json.Null) ?(extra = []) t =
  let wall = Unix.gettimeofday () -. t.t_start in
  let snap = Metrics.snapshot t.metrics in
  let counters =
    List.filter_map
      (function n, Metrics.Counter_v c -> Some (n, Json.Int c) | _ -> None)
      snap
  in
  let gauges =
    List.filter_map
      (function n, Metrics.Gauge_v g -> Some (n, json_float g) | _ -> None)
      snap
  in
  let fcounters =
    List.filter_map
      (function n, Metrics.Fcounter_v f -> Some (n, json_float f) | _ -> None)
      snap
  in
  let histograms =
    List.filter_map
      (function n, Metrics.Histogram_v h -> Some (n, hist_json h) | _ -> None)
      snap
  in
  Json.Obj
    ([
       ("schema", Json.String schema_version);
       ("wall_s", json_float wall);
       ("config", config);
       ("phases", Json.Obj (phases_of_snapshot snap));
       ("counters", Json.Obj counters);
       ("gauges", Json.Obj gauges);
       ("fcounters", Json.Obj fcounters);
       ("histograms", Json.Obj histograms);
     ]
    @ extra)

let write_file path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

let write ?config ?extra t =
  write_file (t.dir / "trace.json") (Json.to_string (Trace.to_json t.trace));
  write_file (t.dir / "metrics.prom") (Openmetrics.expose t.metrics);
  write_file (t.dir / "run.json")
    (Json.to_string (run_json ?config ?extra t) ^ "\n");
  close_out t.events_oc

let run_json_keys =
  [
    "schema"; "wall_s"; "config"; "phases"; "counters"; "gauges";
    "fcounters"; "histograms";
  ]

let validate_run json =
  match json with
  | Json.Obj _ -> (
      let missing =
        List.filter (fun k -> Json.member k json = None) run_json_keys
      in
      match missing with
      | [] -> (
          match Json.member "schema" json with
          | Some (Json.String s) when s = schema_version -> Ok ()
          | Some (Json.String s) ->
              Error (Printf.sprintf "unknown run.json schema %S" s)
          | _ -> Error "run.json schema field is not a string")
      | ks -> Error ("run.json missing keys: " ^ String.concat ", " ks))
  | _ -> Error "run.json is not an object"
