type t = {
  enabled : bool;
  metrics : Metrics.t;
  trace : Trace.t option;
  events : Events.t option;
  progress : Progress.t option;
  atpg_span_s : float;
}

let null =
  {
    enabled = false;
    metrics = Metrics.create ();
    trace = None;
    events = None;
    progress = None;
    atpg_span_s = infinity;
  }

let create ?metrics ?trace ?events ?progress ?(atpg_span_s = 0.001) () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  { enabled = true; metrics; trace; events; progress; atpg_span_s }

let span t ~name ~cat f =
  match t.trace with
  | Some tr when t.enabled -> Trace.with_span tr ~name ~cat f
  | _ -> f ()

let event t ~kind fields =
  match t.events with
  | Some ev when t.enabled -> Events.emit ev ~kind fields
  | _ -> ()

let tick t ?failed ?quarantined ~phase ~done_ ~total ~detected ~budget_left
    () =
  match t.progress with
  | Some p when t.enabled ->
    Progress.tick p ?failed ?quarantined ~phase ~done_ ~total ~detected
      ~budget_left ()
  | _ -> ()
