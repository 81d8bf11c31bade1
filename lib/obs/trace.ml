type event = {
  name : string;
  cat : string;
  ph : string;
  ts : float; (* microseconds since trace creation *)
  dur : float; (* microseconds; 0 for instants *)
  tid : int;
  args : (string * Json.t) list;
}

type t = {
  epoch : float;
  lock : Mutex.t;
  mutable events : event list; (* reverse chronological by append order *)
  mutable n : int;
}

let create () =
  { epoch = Unix.gettimeofday (); lock = Mutex.create (); events = []; n = 0 }

let us_since t = (Unix.gettimeofday () -. t.epoch) *. 1e6

let push t ev =
  Mutex.lock t.lock;
  t.events <- ev :: t.events;
  t.n <- t.n + 1;
  Mutex.unlock t.lock

let with_span ?(args = []) t ~name ~cat f =
  let ts = us_since t and tid = (Domain.self () :> int) in
  Fun.protect
    ~finally:(fun () ->
      push t { name; cat; ph = "X"; ts; dur = us_since t -. ts; tid; args })
    f

let complete ?(args = []) t ~name ~cat ~start_s ~dur_s =
  push t
    {
      name;
      cat;
      ph = "X";
      ts = (start_s -. t.epoch) *. 1e6;
      dur = dur_s *. 1e6;
      tid = (Domain.self () :> int);
      args;
    }

let instant ?(args = []) t ~name ~cat =
  push t
    {
      name;
      cat;
      ph = "i";
      ts = us_since t;
      dur = 0.0;
      tid = (Domain.self () :> int);
      args;
    }

let event_count t =
  Mutex.lock t.lock;
  let n = t.n in
  Mutex.unlock t.lock;
  n

let to_json t =
  Mutex.lock t.lock;
  let events = t.events in
  Mutex.unlock t.lock;
  let event_json e =
    let base =
      [
        ("name", Json.String e.name);
        ("cat", Json.String e.cat);
        ("ph", Json.String e.ph);
        ("ts", Json.Float e.ts);
        ("pid", Json.Int 1);
        ("tid", Json.Int e.tid);
      ]
    in
    let base = if e.ph = "X" then base @ [ ("dur", Json.Float e.dur) ] else base in
    let base =
      if e.args = [] then base else base @ [ ("args", Json.Obj e.args) ]
    in
    Json.Obj base
  in
  (* Restore append order; Perfetto sorts by ts anyway, but stable files
     make golden tests simpler. *)
  let events = List.rev_map event_json events in
  Json.Obj
    [
      ("traceEvents", Json.List events);
      ("displayTimeUnit", Json.String "ms");
    ]
