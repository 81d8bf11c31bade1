let default_jobs () = Domain.recommended_domain_count ()

(* --- cooperative cancellation ------------------------------------------ *)

type token = bool Atomic.t

let token () = Atomic.make false
let cancel t = Atomic.set t true
let cancelled t = Atomic.get t

module Sink = Fst_obs.Sink
module Metrics = Fst_obs.Metrics
module Trace = Fst_obs.Trace

(* Below this much estimated work (caller-scaled cost units; the fault
   simulator passes gate-evaluations), spawning domains costs more than
   the parallelism returns: fall back to in-caller execution. *)
let min_work = 200_000

(* Per-worker accounting, folded into the shared registry once when the
   worker retires: cumulative busy / wall seconds per domain slot plus a
   derived busy fraction gauge. Only touched when the sink is live. *)
let retire_worker (obs : Sink.t) k ~busy ~wall =
  let m = obs.Sink.metrics in
  let b = Metrics.fcounter m (Printf.sprintf "pool.domain%d.busy_s" k) in
  let w = Metrics.fcounter m (Printf.sprintf "pool.domain%d.wall_s" k) in
  Metrics.Fcounter.add b busy;
  Metrics.Fcounter.add w wall;
  let bt = Metrics.Fcounter.value b and wt = Metrics.Fcounter.value w in
  Metrics.Gauge.set
    (Metrics.gauge m (Printf.sprintf "pool.domain%d.busy_frac" k))
    (if wt > 0.0 then bt /. wt else 0.0)

(* True on a domain while it runs pool tasks. A map nested inside a task
   (step 3's per-group fault simulation) runs within that task's chunk,
   whose span and busy time already cover it, so it records no pool
   accounting of its own. *)
let in_task = Domain.DLS.new_key (fun () -> false)

(* Work-stealing task loop. The index space is split into one contiguous
   range per worker, each with its own atomic claim cursor: a worker
   claims [chunk] indices at a time from its own cursor (uncontended in
   the common case), and when its range runs dry it scans the other
   workers' cursors and steals chunks from whichever still has work. A
   cursor may overshoot its range end under concurrent steals; the claim
   is simply empty then, so overshoot is harmless. Each slot of [results]
   is written by exactly one domain; [Domain.join] publishes those writes
   to the caller. [stop] is polled before every claim (own or stolen), so
   a tripped deadline or a cancelled token drains the queue instead of
   running it to completion; tasks already claimed run to the end of their
   chunk. One worker runs on the calling domain; [jobs - 1] helpers are
   spawned beside it.

   With a live sink, each executed chunk is recorded once: one [pool]
   trace span on its worker's tid (args [wid], [stolen]) and one
   observation of [pool.<label>.chunk_s], both from the same two clock
   reads that feed the worker's [pool.domain<k>.busy_s]. *)
let run_tasks ~obs ~label ~jobs ~chunk ~stop n
    (run_one : int -> unit) =
  if n > 0 then begin
    let nested = Domain.DLS.get in_task in
    let live = obs.Sink.enabled && not nested in
    Domain.DLS.set in_task true;
    Fun.protect ~finally:(fun () -> Domain.DLS.set in_task nested)
    @@ fun () ->
    let w = max 1 jobs in
    let range_lo = Array.init (w + 1) (fun k -> k * n / w) in
    let cursor = Array.init w (fun k -> Atomic.make range_lo.(k)) in
    let metric make suffix =
      if live then Some (make obs.Sink.metrics ("pool." ^ label ^ suffix))
      else None
    in
    let chunks_c = metric Metrics.counter ".chunks" in
    let steals_c = metric Metrics.counter ".steals" in
    let chunk_h = metric Metrics.histogram ".chunk_s" in
    let trace = if live then obs.Sink.trace else None in
    let worker k =
      Domain.DLS.set in_task true;
      let wall0 = if live then Clock.now () else 0.0 in
      let busy = ref 0.0 in
      (* Claims one chunk from [victim]'s range; [None] when dry. *)
      let try_claim victim =
        let hi = range_lo.(victim + 1) in
        if Atomic.get cursor.(victim) >= hi then None
        else
          let lo = Atomic.fetch_and_add cursor.(victim) chunk in
          if lo < hi then Some (lo, min (lo + chunk) hi - 1) else None
      in
      let run_chunk ~stolen lo hi =
        let t0 = if live then Clock.now () else 0.0 in
        for i = lo to hi do
          run_one i
        done;
        if live then begin
          let dt = Clock.now () -. t0 in
          busy := !busy +. dt;
          (match trace with
           | Some tr ->
             Trace.complete tr
               ~args:
                 [ ("wid", Fst_obs.Json.Int k);
                   ("stolen", Fst_obs.Json.Bool stolen) ]
               ~name:(Printf.sprintf "%s[%d..%d]" label lo hi)
               ~cat:"pool" ~start_s:t0 ~dur_s:dt
           | None -> ());
          Option.iter Metrics.Counter.incr chunks_c;
          Option.iter (fun h -> Metrics.Histogram.observe h dt) chunk_h
        end
      in
      let rec loop () =
        if not (stop ()) then begin
          let claimed = ref false in
          let v = ref 0 in
          while (not !claimed) && !v < w do
            let victim = (k + !v) mod w in
            (match try_claim victim with
             | Some (lo, hi) ->
               claimed := true;
               let stolen = victim <> k in
               if stolen then Option.iter Metrics.Counter.incr steals_c;
               run_chunk ~stolen lo hi
             | None -> ());
            incr v
          done;
          if !claimed then loop ()
        end
      in
      loop ();
      if live then retire_worker obs k ~busy:!busy ~wall:(Clock.now () -. wall0)
    in
    let helpers =
      Array.init (w - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
    in
    worker 0;
    Array.iter Domain.join helpers
  end

let never_stop () = false

(* One worker claims one task at a time, so the stop condition is
   checked between consecutive tasks. *)
let chunk_of ?chunk ~jobs n =
  if jobs <= 1 then 1
  else
    match chunk with
    | Some c when c > 0 -> c
    | Some _ | None ->
      (* Small chunks keep the queue balanced when task costs vary; four
         chunks per domain is enough to amortize the atomic claim. *)
      max 1 (n / (jobs * 4))

(* The effective worker count: never more than tasks, never more than
   hardware cores (extra domains only add minor-GC barrier thrash), and
   in-caller when the estimated total work is below the chunking
   overhead. *)
let effective_jobs ?work ~jobs n =
  let jobs = max 1 (min jobs (min n (default_jobs ()))) in
  match work with Some u when u < min_work -> 1 | Some _ | None -> jobs

let reraise_first n (slots : ('b, exn * Printexc.raw_backtrace) result option array) =
  for i = 0 to n - 1 do
    match slots.(i) with
    | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
    | Some (Ok _) | None -> ()
  done

let map_array ?(obs = Sink.null) ?(label = "map") ?chunk ?work ~jobs f xs =
  let n = Array.length xs in
  let jobs = effective_jobs ?work ~jobs n in
  if jobs = 1 && not obs.Sink.enabled then Array.map f xs
  else begin
    let slots = Array.make n None in
    let run_one i =
      slots.(i) <-
        Some
          (match f xs.(i) with
           | y -> Ok y
           | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    run_tasks ~obs ~label ~jobs ~chunk:(chunk_of ?chunk ~jobs n)
      ~stop:never_stop n run_one;
    reraise_first n slots;
    Array.map
      (function
        | Some (Ok y) -> y
        | Some (Error _) | None -> assert false)
      slots
  end

(* --- fault-isolated maps ------------------------------------------------ *)

(* Namespaced so [Ok] never shadows stdlib [Ok] at use sites. *)
module Task = struct
  type 'a outcome =
    | Ok of 'a
    | Failed of exn * Printexc.raw_backtrace
    | Cancelled
end

let map_cancellable_isolated ?(obs = Sink.null) ?(label = "map") ?chunk
    ?work ?retry ?token:tok ?(deadline = Clock.never) ~jobs f xs =
  let n = Array.length xs in
  let jobs = effective_jobs ?work ~jobs n in
  let tok = match tok with Some t -> t | None -> token () in
  let policy = match retry with Some p -> p | None -> Retry.default in
  let live = obs.Sink.enabled in
  let retries_c =
    if live then
      Some (Metrics.counter obs.Sink.metrics ("pool." ^ label ^ ".retries"))
    else None
  in
  let quarantined_c =
    if live then
      Some
        (Metrics.counter obs.Sink.metrics ("pool." ^ label ^ ".quarantined"))
    else None
  in
  let slots = Array.make n None in
  let run_one i =
    (* The chaos hook sits inside the retried thunk, so a one-shot
       injection is absorbed by the retry and only a plan that keeps
       firing produces a permanent failure. [Cancel] trips the shared
       token: the rest of the queue drains, already-claimed tasks (this
       one included) run to completion. *)
    let result, attempts =
      Retry.run_count ~policy (fun () ->
          (match Chaos.point Chaos.Pool_task with
           | `Cancel -> cancel tok
           | `Ok -> ());
          f xs.(i))
    in
    let retries = attempts - 1 in
    if retries > 0 then begin
      match retries_c with
      | Some c -> Metrics.Counter.add c retries
      | None -> ()
    end;
    (match result with
     | Result.Ok y ->
       slots.(i) <- Some (Task.Ok y);
       (* Rate-limited retry reporting: one summarizing event per task
          that needed retries, never one per attempt. *)
       if retries > 0 && live then
         Sink.event obs ~kind:"pool.task_retried"
           [
             ("label", Fst_obs.Json.String label);
             ("index", Fst_obs.Json.Int i);
             ("attempts", Fst_obs.Json.Int attempts);
             ("outcome", Fst_obs.Json.String "ok");
           ]
     | Result.Error (e, bt) ->
       (* Quarantine: the failure is recorded in the task's own slot and
          the queue keeps going — a poison task never drains its
          siblings. *)
       slots.(i) <- Some (Task.Failed (e, bt));
       (match quarantined_c with
        | Some c -> Metrics.Counter.incr c
        | None -> ());
       if live then
         Sink.event obs ~kind:"pool.task_quarantined"
           [
             ("label", Fst_obs.Json.String label);
             ("index", Fst_obs.Json.Int i);
             ("attempts", Fst_obs.Json.Int attempts);
             ("error", Fst_obs.Json.String (Printexc.to_string e));
           ])
  in
  let stop () = cancelled tok || Clock.expired deadline in
  run_tasks ~obs ~label ~jobs ~chunk:(chunk_of ?chunk ~jobs n) ~stop n run_one;
  Array.map (function Some o -> o | None -> Task.Cancelled) slots
