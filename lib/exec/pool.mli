(** A stdlib-only work-stealing domain pool (OCaml 5 [Domain], no
    domainslib), with one map per production caller: {!map_array} for
    the fault simulator's shards and {!map_cancellable_isolated} for
    step 3's per-group sequential-ATPG tasks. The pool keeps no state per
    domain: a task that needs scratch takes it itself (the fault
    simulator keeps its contexts with its cached compiled circuit).

    The task index space is split into one contiguous range per worker,
    each with a private atomic claim cursor: workers claim chunks from
    their own range (uncontended) and steal chunks from other workers'
    ranges once theirs runs dry, so a domain that finishes early keeps
    the others' backlog moving instead of idling. Results are merged back
    in input order regardless of completion order, so output is
    deterministic for any [jobs] value.

    [jobs <= 1] runs the same worker loop with one worker, on the calling
    domain: no domains are spawned, tasks run in index order one claim
    at a time, and the result is exactly that of [Array.map]. The
    same one-worker fallback triggers when the caller's total estimated
    [work] is below {!min_work}: spawning domains for a few milliseconds
    of simulation costs more than it returns. [jobs] above
    {!default_jobs} (the hardware core count) is clamped down to it:
    OCaml 5 domains beyond the core count do no extra work and only
    multiply the stop-the-world minor-GC barrier cost, so [jobs:8] on a
    single-core machine runs in-caller rather than 5x slower. Tasks must not share
    mutable state unless they synchronize themselves; the intended use is
    read-only shared inputs (e.g. an immutable circuit) with task-private
    machine state. *)

(** [default_jobs ()] is [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** Minimum estimated total [work] (caller-scaled cost units — the fault
    simulator passes gate-evaluations) below which every map runs
    in-caller regardless of [jobs]. *)
val min_work : int

(** [effective_jobs ?work ~jobs n] is the worker count a map with [n]
    tasks actually uses after the pool's clamps: never more than [n],
    never more than {!default_jobs} (hardware cores), [1] when the
    estimated [work] is below {!min_work}. Exposed so benchmarks and
    reports can record requested vs effective parallelism — on a
    single-core machine [jobs:8] runs with one worker, and domain slots
    [1..7] never exist (the [busy_frac [1,0,...,0]] shape). *)
val effective_jobs : ?work:int -> jobs:int -> int -> int

(** {1 Cooperative cancellation}

    A {!token} is a shared stop flag. Workers poll it before every chunk
    claim, so cancelling drains the remaining queue promptly while letting
    already-claimed tasks finish — no task is ever interrupted midway, and
    the results that exist are trustworthy. *)

type token

val token : unit -> token
val cancel : token -> unit
val cancelled : token -> bool

(** {1 Observability}

    Every map takes an optional [obs] sink ({!Fst_obs.Sink}, default
    {!Fst_obs.Sink.null}) and a [label] naming the parallel region.
    With a live sink the pool records, per domain slot [k], cumulative
    [pool.domain<k>.busy_s] / [wall_s] float counters and a derived
    [pool.domain<k>.busy_frac] gauge; per region it counts
    [pool.<label>.chunks] and [pool.<label>.steals] (chunks claimed from
    another worker's range) and fills a [pool.<label>.chunk_s] duration
    histogram; and when the sink carries a trace buffer, each executed
    chunk becomes one span of category [pool] on its worker's tid, with
    args [wid] (the domain slot) and [stolen]. Span, histogram
    observation and busy seconds come from the same two clock reads, so
    [fst analyze]'s per-worker section, derived from the spans, agrees
    with the metrics. Every [jobs] value records the same way. A map
    called from inside another map's task records none of this: the
    enclosing chunk already covers its time. With the null sink the
    only cost is one branch per chunk claim. *)

(** [map_array ~jobs f xs] is [Array.map f xs], computed on up to
    [jobs] domains. [chunk] overrides the work-queue claim granularity
    (default: about four chunks per domain); [work] is the caller's
    estimate of the total cost (see {!min_work}). If any task raises,
    every claimed task still runs to completion and the exception of the
    lowest-index failing task is re-raised (with its backtrace) on the
    calling domain. *)
val map_array :
  ?obs:Fst_obs.Sink.t ->
  ?label:string ->
  ?chunk:int ->
  ?work:int ->
  jobs:int ->
  ('a -> 'b) ->
  'a array ->
  'b array

(** {1 Fault-isolated map}

    The isolated map never lets one task's failure touch its siblings:
    each task gets its own {!Task.outcome} slot. Failures classified
    transient by the {!Retry} policy are retried in place (bounded,
    deterministic backoff through the policy's injectable sleep);
    failures that survive the attempt budget are {e quarantined} — the
    exception and backtrace land in the task's own [Failed] slot and the
    queue keeps going. Results merge in input order. A caller that wants
    fail-fast semantics passes {!Retry.no_retry} and re-raises the first
    [Failed] slot itself.

    With a live sink, each region additionally counts
    [pool.<label>.retries] (total extra attempts) and
    [pool.<label>.quarantined] (tasks that exhausted the budget), and
    emits one summarizing event per retried or quarantined task
    ([pool.task_retried] / [pool.task_quarantined]) — never one per
    attempt, so retry storms cannot flood the event log.

    Each task body also runs a {!Chaos.point}[ Pool_task] hook (inside
    the retried thunk, so one-shot injections are absorbed by the
    retry); a [Cancel] action trips the map's own token. *)

(** Per-task outcome of an isolated map, in input order: the task's
    result, its final failure after retries (quarantined), or
    [Cancelled] because the queue was drained before it was claimed.
    Namespaced in a submodule so [Ok] never shadows stdlib [Ok]. *)
module Task : sig
  type 'a outcome =
    | Ok of 'a
    | Failed of exn * Printexc.raw_backtrace
    | Cancelled
end

(** [map_cancellable_isolated ~jobs f xs] maps [f] over [xs] with
    per-task fault isolation and cooperative cancellation: the queue
    stops being claimed once [token] is cancelled or [deadline] expires,
    and every unclaimed slot comes back [Cancelled], in input order. With
    [jobs <= 1] the stop condition is checked between consecutive tasks,
    so the non-[Cancelled] prefix is exactly the tasks that ran. A
    failing task is quarantined in its own slot and never drains the
    queue. [retry] defaults to {!Retry.default}. *)
val map_cancellable_isolated :
  ?obs:Fst_obs.Sink.t ->
  ?label:string ->
  ?chunk:int ->
  ?work:int ->
  ?retry:Retry.policy ->
  ?token:token ->
  ?deadline:Clock.deadline ->
  jobs:int ->
  ('a -> 'b) ->
  'a array ->
  'b Task.outcome array
