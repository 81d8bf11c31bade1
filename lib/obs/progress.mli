(** Progress heartbeat: a rate-limited one-line status printer.

    [tick] is cheap to call from inner loops — it reads the clock and
    returns unless a second has passed since the last line
    (the very first tick always prints, so short runs still show a
    heartbeat). Lines go to [stderr] and look like:

    {v [flow] step2-atpg 412/1204 done, 287 detected, 34% | eta 12.3s v} *)

type t

val create : unit -> t

val tick :
  t ->
  ?failed:int ->
  ?quarantined:int ->
  phase:string ->
  done_:int ->
  total:int ->
  detected:int ->
  budget_left:float ->
  unit ->
  unit
(** [budget_left] is the seconds remaining in the phase's budget
    ([infinity] when unbudgeted); the ETA printed is the smaller of the
    rate-extrapolated finish and the budget left. [failed] /
    [quarantined] (both default 0) are appended to the line only when
    nonzero, so a clean run's heartbeat is unchanged. *)
