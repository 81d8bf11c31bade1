type phase = Classify | Step2_atpg | Step2_fsim | Step3 | Finals

(* [cap] is an absolute instant that overrides every phase deadline once
   set; [None] (the plain budgets) means the budget can never be
   cancelled externally. The cell is written by [cancel] on whatever
   thread asks for the cancellation and read on the flow's domains at
   every deadline capture, so it must be an [Atomic]. *)
type t = { start : float; total : float option; cap : float Atomic.t option }

let unlimited = { start = 0.0; total = None; cap = None }

let of_seconds s =
  { start = Clock.now (); total = Some (Float.max 0.0 s); cap = None }

let cancellable ?seconds () =
  {
    start = Clock.now ();
    total = Option.map (Float.max 0.0) seconds;
    cap = Some (Atomic.make infinity);
  }

let cancel t =
  match t.cap with
  | Some c -> Atomic.set c (Clock.now () -. 1.0)
  | None -> ()

let cancelled t =
  match t.cap with Some c -> Atomic.get c < infinity | None -> false

(* Cumulative share of the total allowance by which each phase must be
   done; the last entry is 1.0 by construction so the flow deadline and
   the finals deadline coincide. *)
let cumulative = function
  | Classify -> 0.05
  | Step2_atpg -> 0.35
  | Step2_fsim -> 0.65
  | Step3 -> 0.90
  | Finals -> 1.0

let deadline b phase =
  let base =
    match b.total with
    | None -> Clock.never
    | Some total -> Clock.at (b.start +. (total *. cumulative phase))
  in
  match b.cap with
  | None -> base
  | Some c -> Clock.earliest base (Clock.at (Atomic.get c))

let fault_deadline b phase s = Clock.earliest (Clock.after s) (deadline b phase)
let exhausted b = Clock.expired (deadline b Finals)

let phase_name = function
  | Classify -> "classify"
  | Step2_atpg -> "step2-atpg"
  | Step2_fsim -> "step2-fsim"
  | Step3 -> "step3"
  | Finals -> "finals"
