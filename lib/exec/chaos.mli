(** Deterministic, seeded fault injection for robustness testing.

    A chaos {e plan} is an explicit list of injections, each naming a
    {!site} (a class of hook points threaded through the execution
    layer), a sequence number [at] (which hit of that site fires), and
    an {!action}. Each site keeps a private atomic hit counter; a hook
    point calls {!point} and receives the planned action exactly when
    its site's counter reaches a planned sequence number. Against a
    deterministic workload the same plan therefore injects at the same
    program points every run — the substrate for qcheck properties over
    random plans, and plans being plain lists, QCheck shrinks a failing
    plan to a minimal set of injections for free.

    Off by default and near-zero-cost when disabled: with no plan
    installed, {!point} is a single atomic load and compare. The
    installed plan is global (one harness per process); tests that
    install a plan must {!clear} it afterwards. *)

(** Injection sites, i.e. classes of hook points:
    [Pool_task] fires inside each isolated pool task body (see
    {!Pool.map_cancellable_isolated}); [Engine] at each fault-simulation
    engine entry call ({!Fst_fsim.Fsim.Engine}); [Ckpt_save] /
    [Ckpt_load] around checkpoint writes and reads. *)
type site = Pool_task | Engine | Ckpt_save | Ckpt_load

(** What a firing hook does: [Raise] raises {!Injected}; [Delay s]
    sleeps for [s] seconds (clamped to {!max_delay}); [Cancel] asks the
    surrounding machinery to trip its cancellation token — hook points
    without a token treat it as a no-op. *)
type action = Raise | Delay of float | Cancel

type injection = { site : site; at : int; action : action }
type plan = injection list

(** Raised by a [Raise] injection; the payload names the site and
    sequence number (e.g. ["engine#3"]). Classified transient by
    {!Retry}, so retries absorb one-shot injections and only repeated
    plans produce permanent failures. *)
exception Injected of string

(** [is_injected e] is true iff [e] is {!Injected}. *)
val is_injected : exn -> bool

(** Hard cap applied to every [Delay] action, in seconds. *)
val max_delay : float

(** [install plan] arms the harness with [plan] and resets every site
    counter to zero. Replaces any previously installed plan. *)
val install : plan -> unit

(** [clear ()] disarms the harness; subsequent {!point} calls are
    no-ops. *)
val clear : unit -> unit

(** [active ()] is true iff a plan is installed. *)
val active : unit -> bool

(** [point site] advances [site]'s hit counter and performs the planned
    action for that sequence number, if any: raises {!Injected} on
    [Raise], sleeps then returns [`Ok] on [Delay], and returns [`Cancel]
    on [Cancel] (the caller decides what cancellation means locally).
    Returns [`Ok] without side effects when no plan is installed or no
    injection matches. *)
val point : site -> [ `Ok | `Cancel ]

(** [snapshot ()] is the current per-site hit counters (empty when
    disarmed). Flows persist this inside checkpoints so a resumed run
    replays the remaining plan from the same sequence numbers. *)
val snapshot : unit -> int array

(** [restore counters] overwrites the installed plan's hit counters with
    a {!snapshot}. No-op when disarmed. *)
val restore : int array -> unit

(** [plan_of_seed ?p ?span seed] is a reproducible pseudo-random plan:
    for each site and each sequence number in [0, span), an injection
    is planned with probability [p] (default 0.02), choosing raise /
    delay / cancel at 60/25/15%. Same seed, same plan — used by the
    [--chaos SEED] CLI flag and the chaos smoke. *)
val plan_of_seed : ?p:float -> ?span:int -> int -> plan

(** [site_name s] is a stable lowercase name (["pool-task"], ["engine"],
    ["ckpt-save"], ["ckpt-load"]). *)
val site_name : site -> string

(** [pp_plan plan] renders a plan as ["site#at=action, ..."] for logs
    and counterexample printing. *)
val pp_plan : plan -> string
