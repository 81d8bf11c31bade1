(** Wall-clock time and deadlines for long-running work.

    Every deadline in the code base goes through this module instead of
    [Sys.time ()]: process CPU time accrues across all running domains, so
    a CPU-time deadline silently tightens as [jobs] grows. Wall clock is
    what an operator's budget means.

    A [deadline] is an absolute instant; {!never} compares later than every
    instant, so unlimited work needs no special-casing at check sites. *)

(** [now ()] is the current wall-clock time in seconds. Monotonic for the
    purposes of budget checks (large backwards system-clock jumps can only
    make deadlines more generous, never fire them early and lose work). *)
val now : unit -> float

type deadline

(** The deadline that never expires. *)
val never : deadline

(** [after s] is the instant [s] seconds from now. *)
val after : float -> deadline

(** [at t] is the absolute instant [t] (a {!now} value). *)
val at : float -> deadline

(** [expired d] is true once [now () > d]. [expired never] is always
    false. *)
val expired : deadline -> bool

(** [earliest a b] is whichever deadline fires first. *)
val earliest : deadline -> deadline -> deadline

(** [remaining d] is the seconds left until [d] (negative once expired,
    [infinity] for {!never}). *)
val remaining : deadline -> float
