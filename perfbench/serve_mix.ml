(* serve-mix: a separate [fst serve --workers 1 --jobs-cap 1] daemon
   driven closed-loop by two client connections with a seeded mix of
   flow, sca and lint submits. Every (netlist, kind) pair misses once and
   then repeats as hits. *)

open Fst_netlist
module Json = Fst_obs.Json
module Protocol = Fst_serve.Protocol
module Client = Fst_serve.Client
module Report = Fst_report.Flow_report

let fst_exe = "_build/default/bin/fst.exe"
let clients = 2

(* At least ten samples lie beyond a p99 of 1000. *)
let min_requests = 1000

(* 30 netlists of 60 to 200 gates, each submitted as every kind.
   Structure is fixed per slot; the workload seed relabels the nets.
   Netlists of 400 to 800 gates cost seconds per miss and made the
   daemon's peak RSS swing between 58 and 90 MB from run to run. *)
let profiles =
  List.init 30 (fun k ->
      let gates = 60 + (140 * k / 29) in
      {
        Fst_gen.Gen.name = Printf.sprintf "svc%02d" k;
        gates;
        ffs = max 4 (gates / 12);
        pis = 8;
        pos = 6;
        seed = Int64.of_int (5000 + k);
      })

let kinds = [ Protocol.Flow; Sca; Lint ]

type netlist = { profile : Fst_gen.Gen.profile; label : Relabel.t; text : string }

let render ~seed =
  List.map
    (fun profile ->
      let label = Relabel.apply ~seed (Fst_gen.Gen.generate profile) in
      { profile; label; text = Netfile.to_string label.Relabel.circuit })
    profiles

let flow_config = Fst_core.Config.to_json (Flows.config Fst_obs.Sink.null)

type request = {
  netlist : netlist;
  kind : Protocol.job_kind;
  expect_cached : bool;
  mutable latency_s : float;
  mutable elapsed_s : float;
  mutable cached : bool;
  mutable payload : string;
  mutable report : Report.t option;  (** a flow reply's payload *)
  mutable ok : bool;
}

(* Each client owns the pairs of every other netlist, so the first
   request of a pair in its client's sequence is that pair's miss:
   with one worker, the cache state each request meets is fixed by the
   plan, whatever the interleaving of the two clients. *)
let plan ~seed rendered =
  let rng = Fst_gen.Rng.create (Int64.of_int ((seed * 31) + 7)) in
  (* One miss and then hits, over at least [min_requests] requests. *)
  let pairs = List.length rendered * List.length kinds in
  let per_pair = (min_requests + pairs - 1) / pairs in
  List.init clients (fun client ->
      let reqs =
        List.concat
          (List.mapi
             (fun k nl ->
               if k mod clients <> client then []
               else
                 List.concat_map
                   (fun kind -> List.init per_pair (fun _ -> (nl, kind)))
                   kinds)
             rendered)
        |> Array.of_list
      in
      Relabel.shuffle rng reqs;
      let seen = Hashtbl.create 64 in
      Array.map
        (fun ((nl : netlist), kind) ->
          let key = (nl.profile.Fst_gen.Gen.name, kind) in
          let expect_cached = Hashtbl.mem seen key in
          Hashtbl.replace seen key ();
          {
            netlist = nl;
            kind;
            expect_cached;
            latency_s = 0.0;
            elapsed_s = 0.0;
            cached = false;
            payload = "";
            report = None;
            ok = false;
          })
        reqs)

(* --- the daemon -------------------------------------------------------- *)

type daemon = { pid : int; addr : Protocol.addr; control : Client.t }

let socket_path = Printf.sprintf ".perfbench/serve-%d.sock" (Unix.getpid ())

let rec connect addr ~deadline =
  match Client.connect addr with
  | c -> c
  | exception Unix.Unix_error _ when Unix.gettimeofday () < deadline ->
    Thread.delay 0.002;
    connect addr ~deadline

let reap pid ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Thread.delay 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let expect_kind what kind = function
  | Ok j when Json.member "kind" j = Some (Json.String kind) -> j
  | Ok j -> failwith (what ^ ": unexpected reply " ^ Json.to_string j)
  | Error e -> failwith (what ^ ": " ^ e)

(* Spawns the daemon and waits for its first [ping] reply. *)
let spawn () =
  if not (Sys.file_exists ".perfbench") then Unix.mkdir ".perfbench" 0o755;
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  (* A client writing to a daemon that has gone must get EPIPE, not die. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let pid =
    Unix.create_process fst_exe
      [|
        fst_exe; "serve"; "--socket"; socket_path; "--workers"; "1";
        "--jobs-cap"; "1";
      |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let addr = Protocol.Unix_sock socket_path in
  match connect addr ~deadline:(Unix.gettimeofday () +. 20.0) with
  | exception e ->
    reap pid ~timeout:0.0;
    raise e
  | control ->
    ignore (expect_kind "ping" "pong" (Client.request control Protocol.Ping));
    { pid; addr; control }

let stop d =
  (match Client.request d.control Protocol.Shutdown with
   | _ -> ()
   | exception _ -> ());
  (try Client.close d.control with _ -> ());
  reap d.pid ~timeout:10.0

(* --- one pass ---------------------------------------------------------- *)

let submit_of (r : request) =
  {
    Protocol.kind = r.kind;
    netlist = r.netlist.text;
    name = r.netlist.profile.Fst_gen.Gen.name;
    chains = 1;
    config = flow_config;
    wait = true;
    tenant = "perfbench";
  }

(* One client's closed loop: the next request goes out when the last
   reply is in. A hit must carry the payload its pair's miss returned. *)
let drive ?trace addr reqs =
  let misses = Hashtbl.create 64 in
  let c = connect addr ~deadline:(Unix.gettimeofday () +. 20.0) in
  Array.iter
    (fun r ->
      let t0 = Unix.gettimeofday () in
      let reply =
        Flows.span trace ("submit." ^ Protocol.job_kind_to_string r.kind)
          (fun () -> Client.submit c (submit_of r))
      in
      r.latency_s <- Unix.gettimeofday () -. t0;
      match reply with
      | Error e -> Printf.eprintf "perfbench: serve reply: %s\n%!" e
      | Ok o ->
        r.cached <- o.Client.cached;
        r.elapsed_s <- o.Client.elapsed_s;
        r.payload <- Json.to_string o.Client.payload;
        let key = (r.netlist.profile.Fst_gen.Gen.name, r.kind) in
        let same_payload =
          match Hashtbl.find_opt misses key with
          | None ->
            Hashtbl.replace misses key r.payload;
            true
          | Some p -> p = r.payload
        in
        if r.kind = Protocol.Flow then
          r.report <- Result.to_option (Report.of_json o.Client.payload);
        let well_formed = r.kind <> Protocol.Flow || r.report <> None in
        r.ok <- r.cached = r.expect_cached && same_payload && well_formed;
        if not r.ok then
          Printf.eprintf "perfbench: %s %s: cached=%b (expected %b)%s%s\n%!"
            (fst key) (Protocol.job_kind_to_string r.kind) r.cached
            r.expect_cached
            (if same_payload then "" else ", hit payload differs from the miss")
            (if well_formed then "" else ", payload is not a flow report"))
    reqs;
  Client.close c

(* Both clients at once; the pass wall runs from the first request out
   to the last reply in. A client that dies leaves its unanswered
   requests failed. *)
let pass ?trace addr plan =
  let t0 = Unix.gettimeofday () in
  let threads =
    List.map
      (fun reqs ->
        Thread.create
          (fun reqs ->
            try drive ?trace addr reqs
            with e ->
              Printf.eprintf "perfbench: serve client: %s\n%!"
                (Printexc.to_string e))
          reqs)
      plan
  in
  List.iter Thread.join threads;
  Unix.gettimeofday () -. t0

let cache_stats d =
  let j = expect_kind "stats" "stats" (Client.request d.control Protocol.Stats) in
  let field k =
    match Option.bind (Json.member "cache" j) (Json.member k) with
    | Some (Json.Int n) -> n
    | _ -> failwith ("stats frame without cache." ^ k)
  in
  (field "hits", field "misses", field "evictions")

(* Rendering the netlists, spawning the daemon and its first [ping]
   reply. *)
type setup = { rendered : netlist list; daemon : daemon; setup_s : float; render_s : float }

let set_up ?trace ~seed () =
  let t0 = Unix.gettimeofday () in
  let rendered = Flows.span trace "render" (fun () -> render ~seed) in
  let render_s = Unix.gettimeofday () -. t0 in
  let daemon = Flows.span trace "spawn" spawn in
  { rendered; daemon; setup_s = Unix.gettimeofday () -. t0; render_s }

type pass_result = {
  wall_s : float;
  peak_rss_mb : float;  (** the daemon's *)
  requests : request list;
  hits : int;  (** from the daemon's stats frame *)
  misses : int;
  evictions : int;
}

(* One measured pass against a fresh daemon, which is stopped after. *)
let measured_pass ?trace ~seed s =
  Fun.protect
    ~finally:(fun () -> stop s.daemon)
    (fun () ->
      let plan = plan ~seed s.rendered in
      let wall_s = pass ?trace s.daemon.addr plan in
      let peak_rss_mb = Flows.peak_rss_mb (string_of_int s.daemon.pid) in
      let hits, misses, evictions = cache_stats s.daemon in
      {
        wall_s;
        peak_rss_mb;
        requests = List.concat_map Array.to_list plan;
        hits;
        misses;
        evictions;
      })

type result = {
  setups : setup list;
  passes : pass_result list;  (** in run order *)
}

(* Set-ups that measure no pass, so that [setup_s] is a median of at
   least this many. *)
let setup_repeats = 9

(* Passes, each against its own daemon, until the next one would not fit
   in [seconds]; at least one. *)
let run ?trace ~seed ~seconds () =
  let spare =
    List.init (setup_repeats - 1) (fun _ ->
        let s = set_up ?trace ~seed () in
        stop s.daemon;
        s)
  in
  let t0 = Unix.gettimeofday () in
  let rec loop setups passes =
    let s = set_up ?trace ~seed () in
    let p = measured_pass ?trace ~seed s in
    let setups = s :: setups and passes = p :: passes in
    if Unix.gettimeofday () -. t0 +. s.setup_s +. p.wall_s <= seconds then
      loop setups passes
    else { setups = List.rev setups; passes = List.rev passes }
  in
  let r = loop [] [] in
  { r with setups = spare @ r.setups }

let requests r = List.concat_map (fun p -> p.requests) r.passes
let rendered r = (List.hd r.setups).rendered

let planned_hit_ratio r =
  let reqs = requests r in
  let hits = List.length (List.filter (fun q -> q.expect_cached) reqs) in
  float_of_int hits /. float_of_int (max 1 (List.length reqs))

let measured_hit_ratio r =
  let sum f = List.fold_left (fun n p -> n + f p) 0 r.passes in
  let hits = sum (fun p -> p.hits) in
  float_of_int hits /. float_of_int (max 1 (hits + sum (fun p -> p.misses)))

(* The flow reports the daemon returned in the first pass, one per flow
   pair. *)
let flow_reports r =
  List.filter_map
    (fun q ->
      match q.report with
      | Some rep when q.ok && not q.expect_cached -> Some (q.netlist, rep)
      | _ -> None)
    (List.hd r.passes).requests

let latencies_ms pred r =
  List.filter pred (requests r)
  |> List.map (fun q -> 1e3 *. q.latency_s)
  |> Array.of_list
