(** The [fst serve] daemon: a multi-tenant batch flow service.

    One process listens on a Unix-domain or localhost-TCP socket
    speaking the {!Protocol} JSONL protocol. Submitted jobs are queued
    {e fair-share}: tenants take strict turns (round-robin over tenants
    with pending work), so one user bulk-submitting a thousand circuits
    cannot starve another's single job. [workers] worker threads drain
    the queue; each job runs the existing flow machinery — the Domain
    pool underneath honors the job's (capped) [jobs] knob — under a
    {e cancellable} per-job wall-clock budget
    ({!Fst_exec.Budget.cancellable}), so [cancel] on a running job winds
    it down cooperatively through the ordinary budget-exhaustion path
    and still produces a partial report.

    Results come from the content-addressed {!Cache} whenever the
    submitted netlist + semantic config have been seen before; only
    clean, complete runs (no budget exhaustion, no quarantined or
    aborted faults, not cancelled) are inserted, so a cache hit is
    always bit-identical to what a fresh full run would report. A hit
    costs a digest of the submitted text and two lookups
    ({!Cache.netlist_key}, {!Cache.find}); its result frame carries the
    cached payload text as is.

    A finished job keeps its response but not its netlist text, and the
    daemon remembers at most 1,024 finished jobs: [status]/[result] on an
    older one answers [unknown job].

    A waiting submit streams the job's flow events (phase boundaries,
    checkpoints, abort records — the {!Fst_obs.Sink} event channel) plus
    rate-limited heartbeats back over its connection.

    Every connection reads its frames through {!Protocol.read_frame}: a
    frame longer than {!Protocol.max_frame_bytes} is discarded as it
    arrives, answered with a protocol [error] naming the cap, and the
    connection keeps serving. *)

type t

(** [create ~addr ()] builds a server (not yet listening).

    [workers] (default 1) is the number of jobs executed concurrently —
    each job additionally parallelizes internally via its [jobs] knob,
    which is clamped to [jobs_cap] (default
    {!Fst_exec.Pool.default_jobs}[ ()]). [job_budget] caps every job's
    wall-clock budget in seconds (a client asking for more, or for no
    budget at all, gets this cap). [hb_interval] (default 1s, at least
    1e-4 s) paces the heartbeat frames of waiting submits; no heartbeat
    follows a job's result frame. [log], when given, receives
    one server-side event per job transition ([job_submitted],
    [job_started], [job_done], [cache_hit], ...) — the daemon's own
    observability channel, reusing the flow's event-log machinery. *)
val create :
  ?workers:int ->
  ?jobs_cap:int ->
  ?job_budget:float ->
  ?cache:Cache.t ->
  ?hb_interval:float ->
  ?log:Fst_obs.Events.t ->
  addr:Protocol.addr ->
  unit ->
  t

(** [run t] binds, listens, and serves until a [shutdown] request (or
    {!shutdown}) arrives; running jobs finish first. Returns after the
    listener and every worker have stopped. Installs a [SIGPIPE] ignore
    handler (a client hanging up mid-stream must not kill the daemon). *)
val run : t -> unit

(** [start t] is {!run} on a fresh thread (for tests embedding the
    daemon in-process). *)
val start : t -> Thread.t

(** Programmatic {!Protocol.Shutdown}: stop accepting, drain, return. *)
val shutdown : t -> unit
