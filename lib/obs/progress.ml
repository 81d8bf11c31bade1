(* Seconds between heartbeat lines within one phase. *)
let interval = 1.0

type t = {
  lock : Mutex.t;
  mutable last : float; (* 0.0 = never printed *)
  mutable phase_start : float;
  mutable phase : string;
}

let create () =
  { lock = Mutex.create (); last = 0.0; phase_start = 0.0; phase = "" }

let tick t ?(failed = 0) ?(quarantined = 0) ~phase ~done_ ~total ~detected
    ~budget_left () =
  let now = Unix.gettimeofday () in
  Mutex.lock t.lock;
  if t.phase <> phase then begin
    t.phase <- phase;
    t.phase_start <- now;
    (* force a print on phase entry *)
    t.last <- 0.0
  end;
  let due = t.last = 0.0 || now -. t.last >= interval in
  if due then t.last <- now;
  let phase_start = t.phase_start in
  Mutex.unlock t.lock;
  if due then begin
    let pct = if total > 0 then 100 * done_ / total else 0 in
    let eta =
      let rate =
        let dt = now -. phase_start in
        if dt > 0.0 && done_ > 0 then float_of_int done_ /. dt else 0.0
      in
      let by_rate =
        if rate > 0.0 then float_of_int (total - done_) /. rate else infinity
      in
      Float.min by_rate budget_left
    in
    let eta_txt =
      if Float.is_finite eta && eta >= 0.0 then Printf.sprintf " | eta %.1fs" eta
      else ""
    in
    (* Failure counts only appear once something actually failed, so the
       happy-path heartbeat stays exactly as it always was. *)
    let fail_txt =
      if failed > 0 || quarantined > 0 then
        Printf.sprintf ", %d failed/%d quarantined" failed quarantined
      else ""
    in
    Printf.eprintf "[flow] %s %d/%d done, %d detected%s, %d%%%s\n%!" phase
      done_ total detected fail_txt pct eta_txt
  end
