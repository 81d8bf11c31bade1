module Json = Fst_obs.Json
module Events = Fst_obs.Events
module Config = Fst_core.Config
module Flow = Fst_core.Flow
module Budget = Fst_exec.Budget
module Clock = Fst_exec.Clock
module Netfile = Fst_netlist.Netfile
module Circuit = Fst_netlist.Circuit
module Scan = Fst_tpi.Scan
module Tpi = Fst_tpi.Tpi

(* --- connections ------------------------------------------------------- *)

type conn = {
  oc : out_channel;
  wlock : Mutex.t;  (* frames from reader, worker and heartbeat threads
                       interleave on this socket *)
  mutable alive : bool;
}

(* A frame is written as its pieces back to back, then a newline, so a
   result frame's payload goes out as the cached string itself. [still]
   is checked under the connection's write lock, right before the frame
   goes out: a frame whose reason lapsed while it waited for the lock is
   dropped. *)
let send_frame ?(still = fun () -> true) conn pieces =
  Mutex.lock conn.wlock;
  (if conn.alive && still () then
     try
       List.iter (output_string conn.oc) pieces;
       output_char conn.oc '\n';
       flush conn.oc
     with Sys_error _ | Unix.Unix_error _ -> conn.alive <- false);
  Mutex.unlock conn.wlock

let send ?still conn json = send_frame ?still conn [ Json.to_string json ]

(* --- jobs -------------------------------------------------------------- *)

type job = {
  id : string;
  mutable submit : Protocol.submit;  (* its netlist text is dropped once
                                        the job has finished *)
  mutable state : Protocol.state;
  mutable response : string list option;
      (* the final frame's pieces, once finished *)
  mutable budget : Budget.t option;  (* set while running; cancellable *)
  mutable cancel_requested : bool;
  mutable subscriber : conn option;  (* streams events when [wait] *)
  mutable started_at : float;
}

type t = {
  addr : Protocol.addr;
  workers : int;
  jobs_cap : int;
  job_budget : float option;
  served_cache : Cache.t;
  hb_interval : float;
  log : Events.t option;
  lock : Mutex.t;
  wake : Condition.t;  (* new work, or shutdown *)
  done_c : Condition.t;  (* some job reached a terminal state *)
  jobs : (string, job) Hashtbl.t;
  finished : string Queue.t;
      (* ids of the finished jobs still in [jobs], oldest first *)
  tenants : (string, job Queue.t) Hashtbl.t;
  (* Fair share: tenants take strict turns. [rr] holds every tenant ever
     seen, in first-submit order; the scheduler rotates it one step per
     dequeue, so a tenant with one job waits behind at most one job per
     other active tenant, however deep anyone's queue is. *)
  mutable rr : string list;
  mutable next_id : int;
  mutable submitted : int;
  mutable completed : int;
  mutable running : int;
  mutable stop : bool;
}

let create ?(workers = 1) ?jobs_cap ?job_budget ?cache ?(hb_interval = 1.0)
    ?log ~addr () =
  {
    addr;
    workers = max 1 workers;
    jobs_cap =
      (match jobs_cap with
       | Some j -> max 1 j
       | None -> Fst_exec.Pool.default_jobs ());
    job_budget;
    served_cache = (match cache with Some c -> c | None -> Cache.create ());
    hb_interval = Float.max 1e-4 hb_interval;
    log;
    lock = Mutex.create ();
    wake = Condition.create ();
    done_c = Condition.create ();
    jobs = Hashtbl.create 64;
    finished = Queue.create ();
    tenants = Hashtbl.create 8;
    rr = [];
    next_id = 0;
    submitted = 0;
    completed = 0;
    running = 0;
    stop = false;
  }


let log_event t kind fields =
  match t.log with
  | None -> ()
  | Some log -> Events.emit log ~kind fields

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* --- scheduling -------------------------------------------------------- *)

let queued_count t =
  Hashtbl.fold (fun _ q acc -> acc + Queue.length q) t.tenants 0

(* One rotation step per probe: the head tenant moves to the back whether
   or not it had work, so service order is independent of queue depths. *)
let pick_job t =
  let n = List.length t.rr in
  let rec go i =
    if i >= n then None
    else
      match t.rr with
      | [] -> None
      | tenant :: rest -> (
        t.rr <- rest @ [ tenant ];
        match Hashtbl.find_opt t.tenants tenant with
        | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
        | _ -> go (i + 1))
  in
  go 0

let queue_position t job =
  match Hashtbl.find_opt t.tenants job.submit.Protocol.tenant with
  | None -> None
  | Some q ->
    let pos = ref None and i = ref 0 in
    Queue.iter
      (fun j ->
        if j.id = job.id && !pos = None then pos := Some !i;
        incr i)
      q;
    !pos

(* --- job execution ----------------------------------------------------- *)

type outcome = Succeeded | Errored

let job_failure exn =
  match exn with
  | Failure m -> m
  | Netfile.Parse_error { line; message; _ } ->
    Printf.sprintf "netlist parse error, line %d: %s" line message
  | Circuit.Malformed m -> "malformed circuit: " ^ m
  | Circuit.Combinational_cycle n -> "combinational cycle through " ^ n
  | Flow.Preflight_failed diags ->
    Printf.sprintf "preflight failed: %s"
      (String.concat "; "
         (List.map Fst_lint.Diagnostic.to_string diags))
  | e -> Printexc.to_string e

(* Effective budget: the tighter of what the client asked for and the
   server-wide per-job cap. Always cancellable, so [cancel] can trip it. *)
let job_budget_seconds t (cfg : Config.t) =
  match (cfg.Config.time_budget, t.job_budget) with
  | Some a, Some b -> Some (Float.min a b)
  | Some a, None -> Some a
  | None, Some b -> Some b
  | None, None -> None

let run_flow t job sink (cfg : Config.t) scanned scancfg =
  let budget = Budget.cancellable ?seconds:(job_budget_seconds t cfg) () in
  locked t (fun () -> job.budget <- Some budget);
  let cfg =
    cfg
    |> Config.with_jobs (min (max 1 cfg.Config.jobs) t.jobs_cap)
    |> Config.with_sink sink
  in
  let res = Flow.run ~config:cfg ~budget scanned scancfg in
  let report = Fst_report.Flow_report.of_result res in
  let clean =
    (not (Fst_report.Flow_report.budget_exhausted report))
    && report.Fst_report.Flow_report.aborted_faults = 0
    && report.Fst_report.Flow_report.failed_faults = 0
    && not job.cancel_requested
  in
  (Fst_report.Flow_report.to_json report, clean)

let run_lint scanned scancfg =
  let report = Fst_lint.Lint.run ~config:scancfg ~dynamic:true scanned in
  (Fst_lint.Lint.to_json report, true)

let run_sca scanned (scancfg : Scan.config) =
  let faults =
    Fst_fault.Fault.collapse scanned (Fst_fault.Fault.universe scanned)
  in
  let view =
    Fst_netlist.View.scan_mode scanned
      ~constraints:scancfg.Scan.constraints
  in
  let a = Fst_sca.Sca.analyze view ~faults in
  (Fst_sca.Sca.to_json a, true)

let error_frame job exn =
  [ Json.to_string (Protocol.error ~job:job.id (job_failure exn)) ]

(* Runs on a worker thread. Keys the netlist (a text seen before is not
   parsed again), consults the cache, executes on a miss, renders the
   payload once, caches clean results, and builds the final response
   frame around the payload text. *)
let execute t job =
  let s = job.submit in
  let chains = max 1 s.Protocol.chains in
  match
    let netlist, circuit =
      Cache.netlist_key t.served_cache ~name:s.Protocol.name
        s.Protocol.netlist
    in
    let cfg =
      match Config.of_json s.Protocol.config with
      | Ok c -> c
      | Error e -> failwith e
    in
    (netlist, circuit, cfg)
  with
  | exception exn -> (error_frame job exn, Errored)
  | netlist, circuit, cfg -> (
    let kind_s = Protocol.job_kind_to_string s.Protocol.kind in
    let config_fp =
      match s.Protocol.kind with
      | Protocol.Flow -> Config.fingerprint cfg
      | Protocol.Lint | Protocol.Sca -> "-"
    in
    let key = Cache.key ~kind:kind_s ~netlist ~chains ~config_fp in
    match Cache.find t.served_cache key with
    | Some payload ->
      log_event t "cache_hit" [ ("job", Json.String job.id); ("key", Json.String key) ];
      let elapsed_s = Clock.now () -. job.started_at in
      ( Protocol.result ~job:job.id ~job_kind:s.Protocol.kind ~cached:true
          ~elapsed_s ~payload,
        Succeeded )
    | None -> (
      match
        match Tpi.insert_checked ~chains (Lazy.force circuit) with
        | Error e -> failwith (Tpi.insert_error_message e)
        | Ok (scanned, scancfg) -> (
          match s.Protocol.kind with
          | Protocol.Lint -> run_lint scanned scancfg
          | Protocol.Sca -> run_sca scanned scancfg
          | Protocol.Flow ->
            let sink =
              match job.subscriber with
              | Some conn when s.Protocol.wait ->
                Fst_obs.Sink.create
                  ~events:
                    (Events.to_callback (fun line ->
                         send_frame conn
                           [ Protocol.event_frame ~job:job.id ~line ]))
                  ()
              | _ -> Fst_obs.Sink.null
            in
            run_flow t job sink cfg scanned scancfg)
      with
      | exception exn -> (error_frame job exn, Errored)
      | payload, clean ->
        let payload = Json.to_string payload in
        if clean && not job.cancel_requested then
          Cache.add t.served_cache key payload;
        let elapsed_s = Clock.now () -. job.started_at in
        ( Protocol.result ~job:job.id ~job_kind:s.Protocol.kind ~cached:false
            ~elapsed_s ~payload,
          Succeeded )))

(* The daemon remembers at most this many finished jobs; [status] and
   [result] on an older one answer [unknown job]. *)
let max_finished_jobs = 1024

let finish t job response terminal =
  let subscriber =
    locked t (fun () ->
        job.response <- Some response;
        job.state <- terminal;
        job.budget <- None;
        job.submit <- { job.submit with Protocol.netlist = "" };
        t.completed <- t.completed + 1;
        t.running <- t.running - 1;
        Queue.push job.id t.finished;
        while Queue.length t.finished > max_finished_jobs do
          Hashtbl.remove t.jobs (Queue.pop t.finished)
        done;
        Condition.broadcast t.done_c;
        job.subscriber)
  in
  log_event t "job_done"
    [
      ("job", Json.String job.id);
      ("state", Json.String (Protocol.state_to_string job.state));
    ];
  match subscriber with
  | Some conn when job.submit.Protocol.wait -> send_frame conn response
  | _ -> ()

let rec worker_loop t =
  Mutex.lock t.lock;
  let rec await () =
    match pick_job t with
    | Some job -> Some job
    | None ->
      if t.stop then None
      else begin
        Condition.wait t.wake t.lock;
        await ()
      end
  in
  match await () with
  | None -> Mutex.unlock t.lock
  | Some job ->
    if job.cancel_requested || job.state <> Protocol.Queued then begin
      (* Cancelled while queued: terminal state was already set by the
         cancel handler; just account and notify. *)
      t.running <- t.running + 1;
      Mutex.unlock t.lock;
      finish t job
        [ Json.to_string (Protocol.error ~job:job.id "cancelled") ]
        Protocol.Cancelled;
      worker_loop t
    end
    else begin
      job.state <- Protocol.Running;
      job.started_at <- Clock.now ();
      t.running <- t.running + 1;
      Mutex.unlock t.lock;
      log_event t "job_started" [ ("job", Json.String job.id) ];
      let response, outcome = execute t job in
      let terminal =
        if job.cancel_requested then Protocol.Cancelled
        else
          match outcome with
          | Succeeded -> Protocol.Done
          | Errored -> Protocol.Failed
      in
      finish t job response terminal;
      worker_loop t
    end

(* --- request handling --------------------------------------------------- *)

let handle_submit t conn (s : Protocol.submit) =
  let rejected =
    locked t (fun () ->
        if t.stop then None
        else begin
          t.next_id <- t.next_id + 1;
          let id = Printf.sprintf "job-%d" t.next_id in
          let job =
            {
              id;
              submit = s;
              state = Protocol.Queued;
              response = None;
              budget = None;
              cancel_requested = false;
              subscriber = (if s.Protocol.wait then Some conn else None);
              started_at = Clock.now ();
            }
          in
          Hashtbl.replace t.jobs id job;
          t.submitted <- t.submitted + 1;
          Some (job, queued_count t + 1)
        end)
  in
  match rejected with
  | None -> send conn (Protocol.error "server is shutting down")
  | Some (job, depth) ->
    log_event t "job_submitted"
      [
        ("job", Json.String job.id);
        ("tenant", Json.String s.Protocol.tenant);
        ("job_kind", Json.String (Protocol.job_kind_to_string s.Protocol.kind));
        ("queued", Json.Int depth);
      ];
    (* Ack before the job becomes runnable: a cache-hit job can finish in
       microseconds, and its result frame must not beat the ack onto the
       connection. *)
    send conn (Protocol.ack ~job:job.id ~queued:depth);
    locked t (fun () ->
        let tenant = s.Protocol.tenant in
        let q =
          match Hashtbl.find_opt t.tenants tenant with
          | Some q -> q
          | None ->
            let q = Queue.create () in
            Hashtbl.replace t.tenants tenant q;
            t.rr <- t.rr @ [ tenant ];
            q
        in
        Queue.push job q;
        Condition.broadcast t.wake)

let find_job t id = locked t (fun () -> Hashtbl.find_opt t.jobs id)

let handle_status t conn id =
  match find_job t id with
  | None -> send conn (Protocol.error ~job:id "unknown job")
  | Some job ->
    let state, position =
      locked t (fun () ->
          ( job.state,
            if job.state = Protocol.Queued then queue_position t job else None ))
    in
    send conn (Protocol.status ~job:id ~state ~position)

let handle_cancel t conn id =
  match find_job t id with
  | None -> send conn (Protocol.error ~job:id "unknown job")
  | Some job ->
    let state =
      locked t (fun () ->
          (match job.state with
           | Protocol.Queued | Protocol.Running ->
             job.cancel_requested <- true;
             (* A running flow is cancelled cooperatively: tripping the
                budget cap makes every deadline the flow captures from
                here on report expiry, and it winds down through the
                ordinary budget-exhaustion accounting. *)
             (match job.budget with Some b -> Budget.cancel b | None -> ())
           | _ -> ());
          job.state)
    in
    send conn (Protocol.status ~job:id ~state ~position:None)

let handle_result t conn id =
  match find_job t id with
  | None -> send conn (Protocol.error ~job:id "unknown job")
  | Some job ->
    let response =
      locked t (fun () ->
          while
            match job.state with
            | Protocol.Queued | Protocol.Running -> true
            | _ -> false
          do
            Condition.wait t.done_c t.lock
          done;
          job.response)
    in
    (match response with
     | Some r -> send_frame conn r
     | None -> send conn (Protocol.error ~job:id "cancelled"))

let handle_stats t conn =
  let submitted, completed, running, queued =
    locked t (fun () -> (t.submitted, t.completed, t.running, queued_count t))
  in
  let cache_stats = Cache.stats t.served_cache in
  send conn
    (Json.Obj
       [
         ("kind", Json.String "stats");
         ("protocol", Json.String Protocol.id);
         ("submitted", Json.Int submitted);
         ("completed", Json.Int completed);
         ("running", Json.Int running);
         ("queued", Json.Int queued);
         ("cache", Cache.stats_to_json cache_stats);
       ])

let sockaddr_of = function
  | Protocol.Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Protocol.Tcp port ->
    (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))

(* Closing a listening fd from another thread does NOT wake a blocked
   accept(2); a throwaway self-connection does, portably. The accept loop
   re-checks [stop] after every accept. *)
let poke t =
  let domain, sockaddr = sockaddr_of t.addr in
  match Unix.socket domain Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | fd -> (
    try
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> Unix.connect fd sockaddr)
    with Unix.Unix_error _ -> ())

let initiate_shutdown t =
  let fresh =
    locked t (fun () ->
        if t.stop then false
        else begin
          t.stop <- true;
          Condition.broadcast t.wake;
          Condition.broadcast t.done_c;
          true
        end)
  in
  if fresh then poke t

let shutdown t = initiate_shutdown t

let handle t conn line =
  match Json.of_string line with
  | exception Json.Parse_error e ->
    send conn (Protocol.error ("request is not JSON: " ^ e))
  | j -> (
    match Protocol.request_of_json j with
    | Error e -> send conn (Protocol.error e)
    | Ok (Protocol.Submit s) -> handle_submit t conn s
    | Ok (Protocol.Status id) -> handle_status t conn id
    | Ok (Protocol.Cancel id) -> handle_cancel t conn id
    | Ok (Protocol.Result id) -> handle_result t conn id
    | Ok Protocol.Stats -> handle_stats t conn
    | Ok Protocol.Ping -> send conn (Protocol.pong ())
    | Ok Protocol.Shutdown ->
      send conn (Protocol.bye ());
      log_event t "shutdown" [];
      initiate_shutdown t)

let drop_subscriber t conn =
  locked t (fun () ->
      Hashtbl.iter
        (fun _ job ->
          match job.subscriber with
          | Some c when c == conn -> job.subscriber <- None
          | _ -> ())
        t.jobs)

let serve_conn t fd =
  let conn =
    { oc = Unix.out_channel_of_descr fd; wlock = Mutex.create ();
      alive = true }
  in
  let r = Protocol.reader (Unix.in_channel_of_descr fd) in
  let rec loop () =
    match Protocol.read_frame ~cap:Protocol.max_frame_bytes r with
    | exception (Sys_error _ | Unix.Unix_error _) -> ()
    | `Eof -> ()
    | `Too_long ->
      send conn
        (Protocol.error
           (Printf.sprintf "frame exceeds the %d-byte cap; discarded"
              Protocol.max_frame_bytes));
      if conn.alive then loop ()
    | `Frame line ->
      if String.trim line <> "" then handle t conn line;
      if conn.alive then loop ()
  in
  loop ();
  drop_subscriber t conn;
  Mutex.lock conn.wlock;
  conn.alive <- false;
  Mutex.unlock conn.wlock;
  (try Unix.close fd with Unix.Unix_error _ -> ())

(* --- heartbeats --------------------------------------------------------- *)

(* A heartbeat is written only while its job is still [Running], checked
   under the connection's write lock: [finish] marks the job terminal
   before it sends the result frame, so no heartbeat can follow that frame
   onto the connection. Lock order is write lock, then [t.lock]; nothing
   takes a write lock while holding [t.lock]. *)
let rec heartbeat_loop t =
  (* sleep out the interval in slices of at most 50 ms, so a shutdown
     does not wait for the next tick *)
  let tick = Clock.now () +. t.hb_interval in
  let rec nap () =
    let left = tick -. Clock.now () in
    if left > 0.0 && not (locked t (fun () -> t.stop)) then begin
      Thread.delay (Float.min 0.05 left);
      nap ()
    end
  in
  nap ();
  let running =
    locked t (fun () ->
        if t.stop then None
        else
          Some
            (Hashtbl.fold
               (fun _ job acc ->
                 match (job.state, job.subscriber) with
                 | Protocol.Running, Some conn when job.submit.Protocol.wait ->
                   (job, conn) :: acc
                 | _ -> acc)
               t.jobs []))
  in
  match running with
  | None -> ()
  | Some jobs ->
    List.iter
      (fun (job, conn) ->
        send conn
          ~still:(fun () -> locked t (fun () -> job.state = Protocol.Running))
          (Protocol.heartbeat ~job:job.id ~state:Protocol.Running
             ~elapsed_s:(Clock.now () -. job.started_at)))
      jobs;
    heartbeat_loop t

(* --- listener ----------------------------------------------------------- *)

let bind_listen t =
  (* A stale socket file from a killed daemon blocks bind; remove it. An
     fst-serve socket is ours to reclaim by construction of the path the
     CLI passes. *)
  (match t.addr with
   | Protocol.Unix_sock path when Sys.file_exists path -> (
     try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
   | _ -> ());
  let domain, sockaddr = sockaddr_of t.addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match t.addr with
   | Protocol.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
   | Protocol.Unix_sock _ -> ());
  Unix.bind fd sockaddr;
  Unix.listen fd 64;
  fd

let run t =
  (match Sys.os_type with
   | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   | _ -> ());
  let listen = bind_listen t in
  log_event t "listening"
    [ ("addr", Json.String (Protocol.addr_to_string t.addr));
      ("protocol", Json.String Protocol.id) ];
  let workers =
    List.init t.workers (fun _ -> Thread.create worker_loop t)
  in
  let hb = Thread.create heartbeat_loop t in
  let rec accept_loop () =
    if not (locked t (fun () -> t.stop)) then
      match Unix.accept listen with
      | fd, _ ->
        if locked t (fun () -> t.stop) then
          (try Unix.close fd with Unix.Unix_error _ -> ())
        else ignore (Thread.create (fun () -> serve_conn t fd) ());
        accept_loop ()
      | exception Unix.Unix_error _ ->
        (* accept failed hard; stop accepting (and wake the workers). *)
        initiate_shutdown t
  in
  accept_loop ();
  (try Unix.close listen with Unix.Unix_error _ -> ());
  (* Drain the queue and running jobs; reader threads are not joined —
     a client that keeps its connection open must not wedge shutdown,
     and every job outcome is already published under [lock]. *)
  List.iter Thread.join workers;
  Thread.join hb;
  match t.addr with
  | Protocol.Unix_sock path when Sys.file_exists path -> (
    try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | _ -> ()

let start t = Thread.create run t
