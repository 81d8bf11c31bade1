(* Pure post-run analysis over the Artifacts set: no clocks, no I/O
   beyond the loaders — everything operates on parsed values so the
   qcheck properties can drive it with synthetic runs. *)

(* ---- parsed run.json ----------------------------------------------- *)

type hist = { count : int; sum : float; p50 : float; p90 : float; p99 : float }

type dom = {
  wid : int;
  busy_s : float;
  chunks : int;
  steals : int;
  busy_frac : float;
}

type run = {
  wall_s : float;
  phases : (string * float) list;
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist) list;
  domains : dom list;
  segs : Timeline.seg list;
  config : Json.t;
}

let num = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | Json.Null -> Some Float.nan (* non-finite floats render as null *)
  | _ -> None

let obj_nums j =
  match j with
  | Some (Json.Obj kvs) ->
      List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (num v)) kvs
  | _ -> []

let obj_ints j =
  match j with
  | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> match v with Json.Int i -> Some (k, i) | _ -> None)
        kvs
  | _ -> []

let hist_of_json j =
  let f k = Option.bind (Json.member k j) num in
  let i k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None in
  match (i "count", f "sum", f "p50", f "p90", f "p99") with
  | Some count, Some sum, Some p50, Some p90, Some p99 ->
      Some { count; sum; p50; p90; p99 }
  | _ -> None

let dom_of_json j =
  let f k = Option.bind (Json.member k j) num in
  let i k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None in
  match (i "wid", f "busy_s", f "busy_frac") with
  | Some wid, Some busy_s, Some busy_frac ->
      Some
        {
          wid;
          busy_s;
          chunks = Option.value ~default:0 (i "chunks");
          steals = Option.value ~default:0 (i "steals");
          busy_frac;
        }
  | _ -> None

let run_of_json j =
  match Artifacts.validate_run j with
  | Error e -> Error e
  | Ok () ->
      let wall_s =
        Option.value ~default:Float.nan (Option.bind (Json.member "wall_s" j) num)
      in
      let histograms =
        match Json.member "histograms" j with
        | Some (Json.Obj kvs) ->
            List.filter_map
              (fun (k, v) -> Option.map (fun h -> (k, h)) (hist_of_json v))
              kvs
        | _ -> []
      in
      let domains =
        match Json.member "domains" j with
        | Some (Json.List l) -> List.filter_map dom_of_json l
        | _ -> []
      in
      let segs =
        match Json.member "timeline" j with
        | Some tl -> Timeline.of_json tl
        | None -> []
      in
      Ok
        {
          wall_s;
          phases = obj_nums (Json.member "phases" j);
          counters = obj_ints (Json.member "counters" j);
          gauges = obj_nums (Json.member "gauges" j);
          histograms;
          domains;
          segs;
          config = Option.value ~default:Json.Null (Json.member "config" j);
        }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_run path =
  match Json.of_string (read_file path) with
  | exception Sys_error e -> Error e
  | exception Json.Parse_error e -> Error (path ^ ": " ^ e)
  | j -> Result.map_error (fun e -> path ^ ": " ^ e) (run_of_json j)

(* ---- spans (trace.json) -------------------------------------------- *)

type span = { name : string; cat : string; tid : int; t0 : float; t1 : float }

let spans_of_trace j =
  (* Complete events only; ts/dur are microseconds relative to trace
     start — converted to seconds. *)
  match Json.member "traceEvents" j with
  | Some (Json.List evs) ->
      List.filter_map
        (fun e ->
          let s k =
            match Json.member k e with Some (Json.String v) -> Some v | _ -> None
          in
          let f k = Option.bind (Json.member k e) num in
          match (s "ph", s "name", f "ts", f "dur") with
          | Some "X", Some name, Some ts, Some dur ->
              let tid =
                match Json.member "tid" e with Some (Json.Int t) -> t | _ -> 0
              in
              let t0 = ts /. 1e6 in
              Some
                {
                  name;
                  cat = Option.value ~default:"" (s "cat");
                  tid;
                  t0;
                  t1 = t0 +. (dur /. 1e6);
                }
          | _ -> None)
        evs
  | _ -> []

let load_spans path =
  match Json.of_string (read_file path) with
  | exception Sys_error _ -> []
  | exception Json.Parse_error _ -> []
  | j -> spans_of_trace j

let load_dir dir =
  match load_run (Filename.concat dir "run.json") with
  | Error e -> Error e
  | Ok run -> Ok (run, load_spans (Filename.concat dir "trace.json"))

(* ---- critical path -------------------------------------------------- *)

type critical_path = {
  cp_length_s : float;  (** longest chain of non-overlapping spans *)
  cp_total_s : float;  (** sum of all span durations (total work) *)
  cp_window_s : float;  (** max end - min start over all spans *)
  cp_chain : span list;  (** the chain itself, chronological *)
  cp_amdahl : float;  (** total / length: parallel speedup ceiling *)
}

(* Longest chain of pairwise non-overlapping spans, by DP over spans
   sorted by end time: cp(i) = dur(i) + max { cp(j) | end(j) <= start(i) }.
   The max over earlier spans is a prefix maximum over the end-sorted
   order, found by binary search — O(n log n) overall. *)
let critical_path spans =
  match spans with
  | [] ->
      {
        cp_length_s = 0.0;
        cp_total_s = 0.0;
        cp_window_s = 0.0;
        cp_chain = [];
        cp_amdahl = 1.0;
      }
  | _ ->
      let arr = Array.of_list spans in
      Array.sort (fun a b -> Float.compare a.t1 b.t1) arr;
      let n = Array.length arr in
      let cp = Array.make n 0.0 in
      let pred = Array.make n (-1) in
      (* best.(i) = max cp over arr.(0..i); best_idx the argmax *)
      let best = Array.make n 0.0 in
      let best_idx = Array.make n (-1) in
      for i = 0 to n - 1 do
        let s = arr.(i) in
        let dur = s.t1 -. s.t0 in
        (* largest j < i with arr.(j).t1 <= s.t0 *)
        let j =
          let lo = ref 0 and hi = ref (i - 1) and found = ref (-1) in
          while !lo <= !hi do
            let mid = (!lo + !hi) / 2 in
            if arr.(mid).t1 <= s.t0 then begin
              found := mid;
              lo := mid + 1
            end
            else hi := mid - 1
          done;
          !found
        in
        let prefix, pidx =
          if j < 0 then (0.0, -1) else (best.(j), best_idx.(j))
        in
        cp.(i) <- dur +. prefix;
        pred.(i) <- pidx;
        if i = 0 then begin
          best.(i) <- cp.(i);
          best_idx.(i) <- i
        end
        else if cp.(i) > best.(i - 1) then begin
          best.(i) <- cp.(i);
          best_idx.(i) <- i
        end
        else begin
          best.(i) <- best.(i - 1);
          best_idx.(i) <- best_idx.(i - 1)
        end
      done;
      let total = Array.fold_left (fun a s -> a +. (s.t1 -. s.t0)) 0.0 arr in
      let lo_t =
        Array.fold_left (fun a s -> Float.min a s.t0) infinity arr
      in
      let hi_t = arr.(n - 1).t1 in
      let chain =
        let rec walk i acc =
          if i < 0 then acc else walk pred.(i) (arr.(i) :: acc)
        in
        walk best_idx.(n - 1) []
      in
      let length = best.(n - 1) in
      {
        cp_length_s = length;
        cp_total_s = total;
        cp_window_s = hi_t -. lo_t;
        cp_chain = chain;
        cp_amdahl = (if length > 0.0 then total /. length else 1.0);
      }

(* ---- self vs child time & hotspots ---------------------------------- *)

type node_stat = {
  ns_name : string;
  ns_count : int;
  ns_total_s : float;
  ns_self_s : float;  (** total minus time covered by nested spans *)
}

(* Per-tid stack nesting: spans sorted by (t0, -t1); a span is a child
   of the innermost enclosing span on the same tid. Self time = own
   duration minus the sum of direct children's durations. *)
let self_times spans =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid) in
      Hashtbl.replace by_tid s.tid (s :: l))
    spans;
  let acc : (string, int * float * float) Hashtbl.t = Hashtbl.create 32 in
  let bump name ~total ~self =
    let c, t, sf = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt acc name) in
    Hashtbl.replace acc name (c + 1, t +. total, sf +. self)
  in
  Hashtbl.iter
    (fun _tid l ->
      let arr = Array.of_list l in
      Array.sort
        (fun a b ->
          match Float.compare a.t0 b.t0 with
          | 0 -> Float.compare b.t1 a.t1 (* wider first: parent before child *)
          | c -> c)
        arr;
      (* stack of (span, child_time ref) *)
      let stack = ref [] in
      let close_until t0 =
        let rec go () =
          match !stack with
          | (sp, child) :: rest when sp.t1 <= t0 ->
              bump sp.name ~total:(sp.t1 -. sp.t0)
                ~self:(Float.max 0.0 (sp.t1 -. sp.t0 -. !child));
              (match rest with
              | (_, pchild) :: _ -> pchild := !pchild +. (sp.t1 -. sp.t0)
              | [] -> ());
              stack := rest;
              go ()
          | _ -> ()
        in
        go ()
      in
      Array.iter
        (fun sp ->
          close_until sp.t0;
          stack := (sp, ref 0.0) :: !stack)
        arr;
      close_until infinity)
    by_tid;
  Hashtbl.fold
    (fun name (c, t, sf) l ->
      { ns_name = name; ns_count = c; ns_total_s = t; ns_self_s = sf } :: l)
    acc []
  |> List.sort (fun a b -> Float.compare b.ns_self_s a.ns_self_s)

let hotspots ?(k = 10) spans =
  let l = self_times spans in
  List.filteri (fun i _ -> i < k) l

(* ---- per-domain utilization ------------------------------------------ *)

type util = {
  u_wid : int;
  u_busy_s : float;
  u_busy_frac : float;
  u_chunks : int;
  u_steals : int;
  u_gaps : (float * float) list;  (** idle gaps above the threshold *)
}

let utilization ?(gap_s = 0.001) (segs : Timeline.seg list) =
  if segs = [] then []
  else begin
    let window_lo =
      List.fold_left (fun a (s : Timeline.seg) -> Float.min a s.t0) infinity segs
    in
    let window_hi =
      List.fold_left (fun a (s : Timeline.seg) -> Float.max a s.t1) neg_infinity
        segs
    in
    let window = window_hi -. window_lo in
    let by_wid = Hashtbl.create 8 in
    List.iter
      (fun (s : Timeline.seg) ->
        let l = Option.value ~default:[] (Hashtbl.find_opt by_wid s.wid) in
        Hashtbl.replace by_wid s.wid (s :: l))
      segs;
    Hashtbl.fold (fun wid l acc -> (wid, l) :: acc) by_wid []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map (fun (wid, l) ->
           let l =
             List.sort
               (fun (a : Timeline.seg) (b : Timeline.seg) ->
                 Float.compare a.t0 b.t0)
               l
           in
           let busy =
             List.fold_left
               (fun a (s : Timeline.seg) -> a +. (s.t1 -. s.t0))
               0.0 l
           in
           let steals =
             List.fold_left
               (fun a (s : Timeline.seg) -> a + if s.stolen then 1 else 0)
               0 l
           in
           (* idle gaps: before first seg, between segs, after last —
              relative to the shared observation window *)
           let gaps = ref [] in
           let cursor = ref window_lo in
           List.iter
             (fun (s : Timeline.seg) ->
               if s.t0 -. !cursor > gap_s then
                 gaps := (!cursor, s.t0) :: !gaps;
               cursor := Float.max !cursor s.t1)
             l;
           if window_hi -. !cursor > gap_s then
             gaps := (!cursor, window_hi) :: !gaps;
           {
             u_wid = wid;
             u_busy_s = busy;
             u_busy_frac = (if window > 0.0 then busy /. window else 0.0);
             u_chunks = List.length l;
             u_steals = steals;
             u_gaps = List.rev !gaps;
           })
  end

(* ---- diff ------------------------------------------------------------ *)

type verdict = Regression | Improvement | Unchanged

type diff_entry = {
  d_key : string;
  d_base : float;
  d_cur : float;
  d_delta_frac : float;  (** (cur - base) / base; 0 when base = 0 *)
  d_verdict : verdict;
  d_gated : bool;  (** time-like metric that participates in gating *)
}

(* Time-like keys gate; counters are informational. [min_s] keeps
   microsecond-scale phases from producing noise verdicts: a pair where
   both sides are below the floor is Unchanged by definition. *)
let diff ?(threshold = 0.20) ?(min_s = 0.001) (base : run) (cur : run) =
  let entry ~gated key b c ~floor =
    let delta = if b = 0.0 then 0.0 else (c -. b) /. b in
    let verdict =
      if (not gated) || (b < floor && c < floor) then Unchanged
      else if delta > threshold then Regression
      else if delta < -.threshold then Improvement
      else Unchanged
    in
    { d_key = key; d_base = b; d_cur = c; d_delta_frac = delta;
      d_verdict = verdict; d_gated = gated }
  in
  let wall = entry ~gated:true "wall_s" base.wall_s cur.wall_s ~floor:min_s in
  let keys l l' = List.sort_uniq String.compare (List.map fst l @ List.map fst l') in
  let phases =
    List.map
      (fun k ->
        let get l = Option.value ~default:0.0 (List.assoc_opt k l) in
        entry ~gated:true ("phase:" ^ k) (get base.phases) (get cur.phases)
          ~floor:min_s)
      (keys base.phases cur.phases)
  in
  let counters =
    List.map
      (fun k ->
        let get l = float_of_int (Option.value ~default:0 (List.assoc_opt k l)) in
        entry ~gated:false ("counter:" ^ k) (get base.counters)
          (get cur.counters) ~floor:0.0)
      (keys base.counters cur.counters)
  in
  let hists =
    List.map
      (fun k ->
        let get l =
          match List.assoc_opt k l with
          | Some h when Float.is_finite h.p99 -> h.p99
          | _ -> 0.0
        in
        entry ~gated:true ("p99:" ^ k) (get base.histograms)
          (get cur.histograms) ~floor:min_s)
      (keys base.histograms cur.histograms)
  in
  (wall :: phases) @ hists @ counters

let regressions entries =
  List.filter (fun e -> e.d_gated && e.d_verdict = Regression) entries

(* ---- rendering ------------------------------------------------------- *)

let pf = Printf.sprintf

let fmt_s v =
  if Float.is_nan v then "-"
  else if v >= 1.0 then pf "%.2fs" v
  else if v >= 0.001 then pf "%.2fms" (v *. 1e3)
  else pf "%.0fµs" (v *. 1e6)

let fmt_pct v = pf "%+.1f%%" (v *. 100.0)

let render_report ?(k = 10) (run : run) (spans : span list) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "run: wall %s" (fmt_s run.wall_s);
  (match Json.member "circuit" run.config with
  | Some (Json.String c) -> add "  circuit %s" c
  | _ -> ());
  (match Json.member "jobs" run.config with
  | Some (Json.Int j) -> add "  jobs %d" j
  | _ -> ());
  add "\n\nphases:\n";
  let ptot = List.fold_left (fun a (_, v) -> a +. v) 0.0 run.phases in
  List.iter
    (fun (name, v) ->
      add "  %-14s %10s  %5.1f%%\n" name (fmt_s v)
        (if ptot > 0.0 then v /. ptot *. 100.0 else 0.0))
    run.phases;
  let utils = utilization run.segs in
  if utils <> [] then begin
    add "\ndomains:\n";
    List.iter
      (fun u ->
        add "  d%-2d busy %10s  frac %5.1f%%  chunks %5d  steals %4d  gaps %d\n"
          u.u_wid (fmt_s u.u_busy_s)
          (u.u_busy_frac *. 100.0)
          u.u_chunks u.u_steals (List.length u.u_gaps))
      utils
  end;
  if spans <> [] then begin
    let cp = critical_path spans in
    add "\ncritical path: %s of %s total span time (window %s)\n"
      (fmt_s cp.cp_length_s) (fmt_s cp.cp_total_s) (fmt_s cp.cp_window_s);
    add "  parallel speedup ceiling (Amdahl): %.2fx\n" cp.cp_amdahl;
    List.iter
      (fun s -> add "    %-30s %10s  (tid %d)\n" s.name (fmt_s (s.t1 -. s.t0)) s.tid)
      (List.filteri (fun i _ -> i < k) cp.cp_chain);
    if List.length cp.cp_chain > k then
      add "    ... %d more\n" (List.length cp.cp_chain - k);
    add "\nhotspots (self time):\n";
    List.iter
      (fun ns ->
        add "  %-30s self %10s  total %10s  n %d\n" ns.ns_name
          (fmt_s ns.ns_self_s) (fmt_s ns.ns_total_s) ns.ns_count)
      (hotspots ~k spans)
  end;
  Buffer.contents buf

let render_diff entries =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let mark e =
    match e.d_verdict with
    | Regression -> "REGRESSION"
    | Improvement -> "improved"
    | Unchanged -> ""
  in
  List.iter
    (fun e ->
      if e.d_gated || e.d_delta_frac <> 0.0 then
        add "  %-28s %10s -> %10s  %8s  %s\n" e.d_key
          (if e.d_gated then fmt_s e.d_base else pf "%g" e.d_base)
          (if e.d_gated then fmt_s e.d_cur else pf "%g" e.d_cur)
          (fmt_pct e.d_delta_frac) (mark e))
    entries;
  let r = regressions entries in
  add "%d regression%s\n" (List.length r) (if List.length r = 1 then "" else "s");
  Buffer.contents buf

let diff_to_json entries =
  Json.List
    (List.map
       (fun e ->
         Json.Obj
           [
             ("key", Json.String e.d_key);
             ("base", if Float.is_finite e.d_base then Json.Float e.d_base else Json.Null);
             ("cur", if Float.is_finite e.d_cur then Json.Float e.d_cur else Json.Null);
             ("delta_frac", Json.Float e.d_delta_frac);
             ( "verdict",
               Json.String
                 (match e.d_verdict with
                 | Regression -> "regression"
                 | Improvement -> "improvement"
                 | Unchanged -> "unchanged") );
             ("gated", Json.Bool e.d_gated);
           ])
       entries)
