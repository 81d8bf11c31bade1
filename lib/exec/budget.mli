(** Wall-clock budgets for the phases of a long-running flow.

    A budget is a single total wall-clock allowance split across the
    flow's phases as {e cumulative} deadlines: each phase must be finished
    by [start + total * cumulative_share(phase)]. A phase that finishes
    early automatically donates its slack to every later phase, and a
    phase that overruns eats into the later phases' windows — the total is
    what the operator asked for, not the per-phase split.

    The shares (classify 5%, step-2 ATPG 30%, step-2 fault simulation
    30%, step-3 grouped sequential ATPG 25%, final targeting 10%) mirror
    the paper's observed cost profile, where step 2 dominates. *)

type phase = Classify | Step2_atpg | Step2_fsim | Step3 | Finals

type t

(** The budget that never expires. *)
val unlimited : t

(** [of_seconds s] starts the clock now with a total allowance of [s]
    wall-clock seconds. *)
val of_seconds : float -> t

(** [cancellable ?seconds ()] starts a budget that can additionally be
    tripped from another thread with {!cancel}: [seconds] bounds the run
    like {!of_seconds} ([None] = unbounded until cancelled). This is how
    a long-running service cancels an in-flight job cooperatively — once
    cancelled, every subsequently captured deadline is already expired,
    so the flow winds down through exactly the budget-exhaustion path
    (partial results kept, denied work reported as aborted). *)
val cancellable : ?seconds:float -> unit -> t

(** [cancel b] trips a {!cancellable} budget immediately (no-op on plain
    budgets). Thread-safe; idempotent. *)
val cancel : t -> unit

(** [cancelled b] is true once {!cancel} has been called on [b]. *)
val cancelled : t -> bool

(** [deadline b phase] is the instant by which [phase] must be finished
    ({!Clock.never} for {!unlimited}). *)
val deadline : t -> phase -> Clock.deadline

(** [fault_deadline b phase s] is the instant [s] seconds from now,
    clamped to [phase]'s deadline — the per-fault allowance used by the
    ATPG drivers so one stuck target cannot overrun its phase. *)
val fault_deadline : t -> phase -> float -> Clock.deadline

(** [exhausted b] is true once the whole allowance is spent. *)
val exhausted : t -> bool

val phase_name : phase -> string
