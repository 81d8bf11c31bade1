module Json = Fst_obs.Json

let version = 1
let id = Printf.sprintf "fst-serve/%d" version

type addr = Unix_sock of string | Tcp of int

let addr_to_string = function
  | Unix_sock p -> p
  | Tcp p -> Printf.sprintf "127.0.0.1:%d" p

let addr_of_spec ~socket ~port =
  match (socket, port) with
  | Some p, None -> Ok (Unix_sock p)
  | None, Some p ->
    if p > 0 && p < 65536 then Ok (Tcp p)
    else Error (Printf.sprintf "port %d out of range" p)
  | Some _, Some _ -> Error "--socket and --port conflict; pick one"
  | None, None -> Error "pass --socket PATH or --port N"

(* Frames are read through a bounded reader on both ends: a line longer
   than the cap is discarded as it streams in, so a peer that never sends
   a newline cannot grow the reader's heap. The largest suite netlist's submit
   frame at --scale 1.0 is under 1 MB. *)
let max_frame_bytes = 16 * 1024 * 1024

type reader = {
  ic : in_channel;
  buf : Bytes.t;
  mutable lo : int;  (* [buf.[lo..hi-1]] is read but not yet consumed *)
  mutable hi : int;
}

let reader ic = { ic; buf = Bytes.create 65536; lo = 0; hi = 0 }

let read_frame ~cap r =
  let line = Buffer.create 256 in
  let rec go over =
    if r.lo = r.hi then begin
      r.lo <- 0;
      r.hi <- input r.ic r.buf 0 (Bytes.length r.buf)
    end;
    if r.hi = 0 then
      if over then `Too_long
      else if Buffer.length line > 0 then `Frame (Buffer.contents line)
      else `Eof
    else begin
      let nl = ref r.lo in
      while !nl < r.hi && Bytes.get r.buf !nl <> '\n' do
        incr nl
      done;
      let len = !nl - r.lo in
      let over = over || Buffer.length line + len > cap in
      if over then Buffer.reset line
      else Buffer.add_subbytes line r.buf r.lo len;
      if !nl < r.hi then begin
        r.lo <- !nl + 1;
        if over then `Too_long else `Frame (Buffer.contents line)
      end
      else begin
        r.lo <- r.hi;
        go over
      end
    end
  in
  go false

type job_kind = Flow | Lint | Sca

let job_kind_to_string = function Flow -> "flow" | Lint -> "lint" | Sca -> "sca"

let job_kind_of_string = function
  | "flow" -> Some Flow
  | "lint" -> Some Lint
  | "sca" -> Some Sca
  | _ -> None

type submit = {
  kind : job_kind;
  netlist : string;
  name : string;
  chains : int;
  config : Json.t;
  wait : bool;
  tenant : string;
}

type request =
  | Submit of submit
  | Status of string
  | Cancel of string
  | Result of string
  | Stats
  | Ping
  | Shutdown

let commands =
  [
    ( "submit",
      "run a job: {netlist, name?, chains?, kind? (flow|lint|sca), config? \
       (Config JSON), wait? (default true), tenant?}; replies ack, then \
       (waiting) streamed event/heartbeat frames and the final result" );
    ("status", "{job}: current state and queue position");
    ("cancel", "{job}: drop a queued job, or cancel a running one \
                cooperatively through its budget");
    ("result", "{job}: block until the job finishes, then reply its result");
    ("stats", "cache hits/misses/entries and queue/job counters");
    ("ping", "liveness probe; replies pong with the protocol id");
    ("shutdown", "stop accepting work, finish running jobs, exit");
  ]

(* --- encoding ---------------------------------------------------------- *)

let submit_to_json s =
  Json.Obj
    [
      ("v", Json.Int version);
      ("cmd", Json.String "submit");
      ("kind", Json.String (job_kind_to_string s.kind));
      ("netlist", Json.String s.netlist);
      ("name", Json.String s.name);
      ("chains", Json.Int s.chains);
      ("config", s.config);
      ("wait", Json.Bool s.wait);
      ("tenant", Json.String s.tenant);
    ]

let job_req cmd job =
  Json.Obj
    [ ("v", Json.Int version); ("cmd", Json.String cmd);
      ("job", Json.String job) ]

let bare_req cmd =
  Json.Obj [ ("v", Json.Int version); ("cmd", Json.String cmd) ]

let request_to_json = function
  | Submit s -> submit_to_json s
  | Status j -> job_req "status" j
  | Cancel j -> job_req "cancel" j
  | Result j -> job_req "result" j
  | Stats -> bare_req "stats"
  | Ping -> bare_req "ping"
  | Shutdown -> bare_req "shutdown"

(* --- decoding ---------------------------------------------------------- *)

let ( let* ) = Result.bind

let opt_string j k ~default =
  match Json.member k j with
  | None -> Ok default
  | Some (Json.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "%S expects a string" k)

let opt_int j k ~default =
  match Json.member k j with
  | None -> Ok default
  | Some (Json.Int i) -> Ok i
  | Some _ -> Error (Printf.sprintf "%S expects an integer" k)

let opt_bool j k ~default =
  match Json.member k j with
  | None -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "%S expects a boolean" k)

let req_job j =
  match Json.member "job" j with
  | Some (Json.String s) -> Ok s
  | _ -> Error "\"job\" (string) required"

let submit_of_json j =
  let* kind_s = opt_string j "kind" ~default:"flow" in
  let* kind =
    match job_kind_of_string kind_s with
    | Some k -> Ok k
    | None -> Error (Printf.sprintf "unknown job kind %S" kind_s)
  in
  let* netlist =
    match Json.member "netlist" j with
    | Some (Json.String s) -> Ok s
    | _ -> Error "\"netlist\" (string) required"
  in
  let* name = opt_string j "name" ~default:"netlist" in
  let* chains = opt_int j "chains" ~default:1 in
  let* chains =
    if chains >= 1 then Ok chains
    else Error (Printf.sprintf "\"chains\" must be >= 1, got %d" chains)
  in
  let config =
    match Json.member "config" j with Some c -> c | None -> Json.Obj []
  in
  let* wait = opt_bool j "wait" ~default:true in
  let* tenant = opt_string j "tenant" ~default:"anon" in
  Ok (Submit { kind; netlist; name; chains; config; wait; tenant })

let request_of_json j =
  let* v =
    match Json.member "v" j with
    | Some (Json.Int v) -> Ok v
    | _ -> Error "\"v\" (protocol version) required"
  in
  if v <> version then
    Error (Printf.sprintf "protocol version %d unsupported (this is %s)" v id)
  else
    let* cmd =
      match Json.member "cmd" j with
      | Some (Json.String c) -> Ok c
      | _ -> Error "\"cmd\" (string) required"
    in
    if not (List.mem_assoc cmd commands) then
      Error
        (Printf.sprintf "unknown cmd %S (expected one of: %s)" cmd
           (String.concat ", " (List.map fst commands)))
    else
      match cmd with
      | "submit" -> submit_of_json j
      | "status" -> Result.map (fun j -> Status j) (req_job j)
      | "cancel" -> Result.map (fun j -> Cancel j) (req_job j)
      | "result" -> Result.map (fun j -> Result j) (req_job j)
      | "stats" -> Ok Stats
      | "ping" -> Ok Ping
      | "shutdown" -> Ok Shutdown
      | _ -> assert false (* the commands table gate above is exhaustive *)

(* --- responses --------------------------------------------------------- *)

type state = Queued | Running | Done | Failed | Cancelled

let state_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Cancelled -> "cancelled"

let ack ~job ~queued =
  Json.Obj
    [ ("kind", Json.String "ack"); ("job", Json.String job);
      ("queued", Json.Int queued) ]

let event_frame ~job ~line =
  Printf.sprintf "{\"kind\":\"event\",\"job\":%s,\"event\":%s}"
    (Json.to_string (Json.String job))
    line

let heartbeat ~job ~state ~elapsed_s =
  Json.Obj
    [
      ("kind", Json.String "heartbeat");
      ("job", Json.String job);
      ("state", Json.String (state_to_string state));
      ("elapsed_s", Json.Float elapsed_s);
    ]

let result ~job ~job_kind ~cached ~elapsed_s ~payload =
  [
    Printf.sprintf
      "{\"kind\":\"result\",\"job\":%s,\"job_kind\":\"%s\",\
       \"cached\":%b,\"elapsed_s\":%s,\"payload\":"
      (Json.to_string (Json.String job))
      (job_kind_to_string job_kind)
      cached
      (Json.to_string (Json.Float elapsed_s));
    payload;
    "}";
  ]

let status ~job ~state ~position =
  Json.Obj
    ([
       ("kind", Json.String "status");
       ("job", Json.String job);
       ("state", Json.String (state_to_string state));
     ]
    @ match position with None -> [] | Some p -> [ ("position", Json.Int p) ])

let error ?job message =
  Json.Obj
    (("kind", Json.String "error")
    :: (match job with None -> [] | Some j -> [ ("job", Json.String j) ])
    @ [ ("message", Json.String message) ])

let pong () =
  Json.Obj
    [ ("kind", Json.String "pong"); ("protocol", Json.String id);
      ("version", Json.Int version) ]

let bye () = Json.Obj [ ("kind", Json.String "bye") ]
