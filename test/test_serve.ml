open Fst_core
module Protocol = Fst_serve.Protocol
module Cache = Fst_serve.Cache
module Server = Fst_serve.Server
module Client = Fst_serve.Client
module Json = Fst_obs.Json

(* --- cache-key semantics ------------------------------------------------ *)

(* The semantic fingerprint is the cache's notion of "same run": knobs
   that change only how the flow executes (parallelism, sinks,
   budgets, error policy, preflight) must not move it; knobs that change
   what the flow computes must. *)
let test_fingerprint_invariant () =
  let base = Config.fingerprint Config.default in
  let same label cfg =
    Alcotest.(check string) label base (Config.fingerprint cfg)
  in
  same "jobs excluded" Config.(default |> with_jobs 7);
  same "time_budget excluded" Config.(default |> with_time_budget (Some 5.0));
  same "preflight excluded" Config.(default |> with_preflight false);
  same "sink excluded" Config.(default |> with_sink Fst_obs.Sink.null);
  match Config.on_error_of_string "keep-going" with
  | Some p -> same "on_error excluded" Config.(default |> with_on_error p)
  | None -> Alcotest.fail "on_error_of_string keep-going"

let test_fingerprint_sensitive () =
  let base = Config.fingerprint Config.default in
  let differs label cfg =
    if Config.fingerprint cfg = base then
      Alcotest.fail (label ^ ": fingerprint did not change")
  in
  differs "comb_backtrack" Config.(default |> with_comb_backtrack 1);
  differs "frames" Config.(default |> with_frames [ 9 ]);
  differs "random_seed" Config.(default |> with_random_seed 99L);
  differs "truncate_blocks"
    Config.(default |> with_truncate_blocks (Some 0.5));
  differs "sca_prune"
    Config.(default |> with_sca_prune (not Config.default.Config.sca_prune))

let test_netlist_hash () =
  let a =
    Fst_netlist.Netfile.parse_string ~name:"c"
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"
  in
  let b =
    Fst_netlist.Netfile.parse_string ~name:"c"
      "# a comment\nINPUT(a)\n\nOUTPUT(y)\n   y = NOT( a )\n"
  in
  let c =
    Fst_netlist.Netfile.parse_string ~name:"c"
      "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n"
  in
  Alcotest.(check string)
    "comments/whitespace do not move the hash" (Cache.netlist_hash a)
    (Cache.netlist_hash b);
  if Cache.netlist_hash a = Cache.netlist_hash c then
    Alcotest.fail "distinct gates must hash differently"

let test_cache_key () =
  let k = Cache.key ~kind:"flow" ~netlist:"nh" ~chains:1 ~config_fp:"fp" in
  Alcotest.(check string) "deterministic" k
    (Cache.key ~kind:"flow" ~netlist:"nh" ~chains:1 ~config_fp:"fp");
  let distinct label k' =
    if k = k' then Alcotest.fail (label ^ ": key collision")
  in
  distinct "kind" (Cache.key ~kind:"lint" ~netlist:"nh" ~chains:1 ~config_fp:"fp");
  distinct "netlist" (Cache.key ~kind:"flow" ~netlist:"nh2" ~chains:1 ~config_fp:"fp");
  distinct "chains" (Cache.key ~kind:"flow" ~netlist:"nh" ~chains:2 ~config_fp:"fp");
  distinct "config" (Cache.key ~kind:"flow" ~netlist:"nh" ~chains:1 ~config_fp:"fp2")

let test_cache_lru () =
  let c = Cache.create ~max_entries:2 () in
  Cache.add c "k1" "1";
  Cache.add c "k2" "2";
  (* Touch k1 so k2 is the least-recently-used entry. *)
  ignore (Cache.find c "k1");
  Cache.add c "k3" "3";
  Alcotest.(check bool) "k2 evicted" true (Cache.find c "k2" = None);
  Alcotest.(check bool) "k1 kept" true (Cache.find c "k1" = Some "1");
  Alcotest.(check bool) "k3 kept" true (Cache.find c "k3" = Some "3");
  let s = Cache.stats c in
  Alcotest.(check int) "evictions" 1 s.Cache.evictions;
  Alcotest.(check int) "entries" 2 s.Cache.entries

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let test_cache_disk () =
  let dir = temp_dir "fst-cache" in
  let c1 = Cache.create ~dir () in
  Cache.add c1 "deadbeef" "{\"x\":42}";
  (* A fresh cache over the same directory starts cold in memory but
     warm on disk: the find must fall through and count as a hit. *)
  let c2 = Cache.create ~dir () in
  (match Cache.find c2 "deadbeef" with
  | Some "{\"x\":42}" -> ()
  | _ -> Alcotest.fail "disk fallback did not replay the artifact");
  let s = Cache.stats c2 in
  Alcotest.(check int) "disk fallback is a hit" 1 s.Cache.hits;
  Alcotest.(check bool) "miss not counted" true (s.Cache.misses = 0)

(* A disk copy is validated before it is served: a truncated file is a
   miss, and a hand-edited one that is still JSON is served as its compact
   one-line rendering, never with a newline that would split a frame. *)
let test_cache_disk_corrupt () =
  let dir = temp_dir "fst-corrupt" in
  let c1 = Cache.create ~dir () in
  Cache.add c1 "k1" "{\"x\":1}";
  Cache.add c1 "k2" "{\"y\":[1,2]}";
  let overwrite k text =
    let oc = open_out_bin (Filename.concat dir (k ^ ".json")) in
    output_string oc text;
    close_out oc
  in
  overwrite "k1" "{\"x\":";
  overwrite "k2" "{ \"y\" : [ 1,\n 2 ] }\n";
  let c2 = Cache.create ~dir () in
  Alcotest.(check (option string)) "truncated file is a miss" None
    (Cache.find c2 "k1");
  Alcotest.(check (option string)) "edited file is served compact"
    (Some "{\"y\":[1,2]}") (Cache.find c2 "k2");
  let s = Cache.stats c2 in
  Alcotest.(check (pair int int)) "hits, misses" (1, 1)
    (s.Cache.hits, s.Cache.misses)

(* --- protocol ----------------------------------------------------------- *)

let test_protocol_roundtrip () =
  let submit =
    {
      Protocol.kind = Protocol.Flow;
      netlist = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
      name = "tiny";
      chains = 2;
      config = Json.Obj [ ("jobs", Json.Int 1) ];
      wait = false;
      tenant = "alice";
    }
  in
  List.iter
    (fun req ->
      match Protocol.request_of_json (Protocol.request_to_json req) with
      | Ok req' ->
        Alcotest.(check bool) "request round-trips" true (req = req')
      | Error e -> Alcotest.fail ("round-trip: " ^ e))
    [
      Protocol.Submit submit;
      Protocol.Status "job-1";
      Protocol.Cancel "job-1";
      Protocol.Result "job-1";
      Protocol.Stats;
      Protocol.Ping;
      Protocol.Shutdown;
    ]

let test_protocol_rejects () =
  let bad label j =
    match Protocol.request_of_json j with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (label ^ ": accepted a malformed request")
  in
  bad "wrong version"
    (Json.Obj [ ("v", Json.Int 99); ("cmd", Json.String "ping") ]);
  bad "unknown command"
    (Json.Obj
       [ ("v", Json.Int Protocol.version); ("cmd", Json.String "frobnicate") ]);
  bad "missing cmd" (Json.Obj [ ("v", Json.Int Protocol.version) ]);
  bad "not an object" (Json.String "ping");
  (* Every documented command name must be accepted (with its required
     arguments) — the doc table and the validator are the same table. *)
  Alcotest.(check bool) "submit documented" true
    (List.mem_assoc "submit" Protocol.commands)

(* A submit's chain count is bounded before anything is sized by it: below
   1 is a decode error naming the key, and a huge count decodes and builds
   the same scan design as one chain per flip-flop, without a billion-entry
   partition list. *)
let test_submit_chains_bounded () =
  let submit chains =
    Json.Obj
      [
        ("v", Json.Int Protocol.version);
        ("cmd", Json.String "submit");
        ("netlist", Json.String "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n");
        ("chains", Json.Int chains);
      ]
  in
  List.iter
    (fun n ->
      match Protocol.request_of_json (submit n) with
      | Ok _ -> Alcotest.failf "chains %d: accepted" n
      | Error e ->
        if not (Helpers.contains_substring ~needle:"\"chains\"" e) then
          Alcotest.failf "chains %d: error %S does not name the key" n e)
    [ 0; -4 ];
  let huge = 1_000_000_000 in
  (match Protocol.request_of_json (submit huge) with
   | Ok (Protocol.Submit { chains; _ }) ->
     Alcotest.(check int) "huge count decodes" huge chains
   | Ok _ | Error _ -> Alcotest.fail "huge chain count not decoded as a submit");
  let c = Helpers.small_seq_circuit ~gates:60 ~ffs:6 7L in
  let design chains =
    match Fst_tpi.Tpi.insert_checked ~chains c with
    | Ok (scanned, config) -> (Fst_netlist.Netfile.to_string scanned, config)
    | Error e -> Alcotest.fail (Fst_tpi.Tpi.insert_error_message e)
  in
  let want = design (Fst_netlist.Circuit.dff_count c) in
  Alcotest.(check bool) "huge count = one chain per flip-flop" true
    (design huge = want)

(* --- end-to-end: in-process daemon over a unix socket ------------------- *)

let quick_config_json =
  Config.(
    default |> with_jobs 1 |> with_comb_backtrack 100
    |> with_seq_backtrack 200 |> with_final_backtrack 500
    |> with_frames [ 1; 2 ]
    |> with_final_frames [ 1; 2; 4 ]
    |> to_json)

let connect_retry addr =
  let rec go n =
    match Client.connect addr with
    | c -> c
    | exception Unix.Unix_error _ when n > 0 ->
      Thread.delay 0.05;
      go (n - 1)
  in
  go 100

(* [f] on a connection to an in-process daemon over a fresh unix socket;
   the daemon is shut down when [f] returns. *)
let with_client prefix f =
  let dir = temp_dir prefix in
  let addr = Protocol.Unix_sock (Filename.concat dir "sock") in
  let server = Server.create ~workers:1 ~jobs_cap:1 ~addr () in
  let thread = Server.start server in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Thread.join thread)
    (fun () ->
      let c = connect_retry addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c))

let small_submit ?(kind = Protocol.Lint) ?(name = "small") netlist =
  {
    Protocol.kind;
    netlist;
    name;
    chains = 1;
    config = quick_config_json;
    wait = true;
    tenant = "t1";
  }

let small_netlist seed =
  Fst_netlist.Netfile.to_string
    (Helpers.small_seq_circuit ~gates:30 ~ffs:3 seed)

(* A waiting submit's outcome and the raw bytes of its result frame's
   payload: everything between the head's ["payload":] and the closing
   brace. *)
let submit_raw c submit =
  let last = ref "" in
  match Client.submit ~on_frame:(fun l -> last := l) c submit with
  | Error e -> Alcotest.fail ("submit: " ^ e)
  | Ok o -> (
    let tag = ",\"payload\":" in
    match Helpers.find_substring ~needle:tag !last with
    | None -> Alcotest.fail ("no payload in the result frame " ^ !last)
    | Some i ->
      let start = i + String.length tag in
      (o, String.sub !last start (String.length !last - 1 - start)))

let cache_stat c k =
  match Client.request c Protocol.Stats with
  | Ok j -> (
    match Option.bind (Json.member "cache" j) (Json.member k) with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "stats frame without cache.%s" k)
  | Error e -> Alcotest.fail ("stats: " ^ e)

(* A hit writes the bytes its miss rendered, for every job kind, and those
   bytes are the compact rendering of the payload the client parsed. *)
let test_serve_hit_bytes () =
  with_client "fst-bytes" (fun c ->
      List.iter
        (fun kind ->
          let what = Protocol.job_kind_to_string kind in
          let submit = small_submit ~kind (small_netlist 11L) in
          let miss, miss_raw = submit_raw c submit in
          let hit, hit_raw = submit_raw c submit in
          Alcotest.(check (pair bool bool)) (what ^ ": miss, then hit")
            (false, true) (miss.Client.cached, hit.Client.cached);
          Alcotest.(check string) (what ^ ": hit bytes = miss bytes")
            miss_raw hit_raw;
          Alcotest.(check string) (what ^ ": payload is compact JSON")
            (Json.to_string miss.Client.payload) miss_raw)
        [ Protocol.Lint; Protocol.Sca; Protocol.Flow ])

(* The remembered netlist hash is keyed by the text and the circuit name:
   a reformatted text with the same canonical form still hits, and the
   same text under another name (which the canonical rendering carries)
   misses. *)
let test_serve_text_memo () =
  with_client "fst-memo" (fun c ->
      let text = small_netlist 12L in
      let reformatted =
        "# the same circuit, reformatted\n\n"
        ^ String.concat "\n"
            (List.map
               (fun l -> if l = "" then l else "   " ^ l ^ "  \n# note")
               (String.split_on_char '\n' text))
      in
      let cached submit =
        match Client.submit c submit with
        | Ok o -> o.Client.cached
        | Error e -> Alcotest.fail ("submit: " ^ e)
      in
      Alcotest.(check bool) "first submit misses" false
        (cached (small_submit text));
      Alcotest.(check bool) "reformatted text hits" true
        (cached (small_submit reformatted));
      Alcotest.(check bool) "same text, another name misses" false
        (cached (small_submit ~name:"other" text));
      Alcotest.(check bool) "repeat hits" true (cached (small_submit text));
      Alcotest.(check int) "three (name, text) pairs remembered" 3
        (cache_stat c "texts"))

(* A text that fails to parse is parsed on every submit: each gets the
   same error, and nothing about it is remembered. *)
let test_serve_parse_error_not_memoised () =
  with_client "fst-bad" (fun c ->
      let bad = small_submit "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n" in
      let error () =
        match Client.submit c bad with
        | Ok _ -> Alcotest.fail "a netlist that does not parse was accepted"
        | Error e -> e
      in
      let first = error () in
      Alcotest.(check bool) ("names the parse error: " ^ first) true
        (Helpers.contains_substring ~needle:"parse error" first);
      Alcotest.(check (list string)) "same error every time" [ first; first ]
        [ error (); error () ];
      Alcotest.(check int) "nothing remembered" 0 (cache_stat c "texts");
      ignore (submit_raw c (small_submit (small_netlist 13L)));
      Alcotest.(check int) "a parsed text is remembered" 1
        (cache_stat c "texts"))

(* The job table keeps at most 1,024 finished jobs: once one more has
   finished, the oldest is an unknown job to [status] and [result], and
   the next oldest is still known. *)
let test_serve_job_table_bounded () =
  with_client "fst-jobs" (fun c ->
      let submit = small_submit (small_netlist 14L) in
      let ids =
        List.init 1025 (fun _ ->
            match Client.submit c submit with
            | Ok o -> o.Client.job
            | Error e -> Alcotest.fail ("submit: " ^ e))
      in
      let reply req =
        match Client.request c req with
        | Ok j -> (
          match (Json.member "kind" j, Json.member "message" j) with
          | Some (Json.String "error"), Some (Json.String m) -> m
          | _, _ -> (
            match Json.member "state" j with
            | Some (Json.String s) -> s
            | _ -> Json.to_string j))
        | Error e -> Alcotest.fail e
      in
      let oldest = List.hd ids and next = List.nth ids 1 in
      Alcotest.(check string) "oldest status" "unknown job"
        (reply (Protocol.Status oldest));
      Alcotest.(check string) "oldest result" "unknown job"
        (reply (Protocol.Result oldest));
      Alcotest.(check string) "next oldest status" "done"
        (reply (Protocol.Status next)))

let test_serve_end_to_end () =
  with_client "fst-serve" (fun c ->
      let netlist =
        Fst_netlist.Netfile.to_string
          (Helpers.small_seq_circuit ~gates:40 ~ffs:4 3L)
      in
      let submit =
        {
          Protocol.kind = Protocol.Flow;
          netlist;
          name = "small";
          chains = 1;
          config = quick_config_json;
          wait = true;
          tenant = "t1";
        }
      in
      (match Client.request c Protocol.Ping with
      | Ok (Json.Obj kvs) ->
        Alcotest.(check bool) "pong" true
          (List.assoc_opt "kind" kvs = Some (Json.String "pong"))
      | Ok _ | Error _ -> Alcotest.fail "ping failed");
      let cold =
        match Client.submit c submit with
        | Ok o -> o
        | Error e -> Alcotest.fail ("cold submit: " ^ e)
      in
      Alcotest.(check bool) "cold run is uncached" false cold.Client.cached;
      Alcotest.(check bool) "cold run streamed events" true
        (cold.Client.events <> []);
      (* The identical resubmit must come from the cache, bit-identical. *)
      let warm =
        match Client.submit c submit with
        | Ok o -> o
        | Error e -> Alcotest.fail ("warm submit: " ^ e)
      in
      Alcotest.(check bool) "warm run is cached" true warm.Client.cached;
      Alcotest.(check string) "cache hit is bit-identical"
        (Json.to_string cold.Client.payload)
        (Json.to_string warm.Client.payload);
      (* Execution knobs must not defeat the cache: same semantics under
         a different jobs setting is still a hit. *)
      let retuned =
        {
          submit with
          Protocol.config =
            (match quick_config_json with
            | Json.Obj kvs ->
              Json.Obj
                (List.map
                   (function
                     | "jobs", _ -> ("jobs", Json.Int 4)
                     | kv -> kv)
                   kvs)
            | j -> j);
        }
      in
      (match Client.submit c retuned with
      | Ok o -> Alcotest.(check bool) "jobs knob is not semantic" true
          o.Client.cached
      | Error e -> Alcotest.fail ("retuned submit: " ^ e));
      (* A semantic edit must miss. *)
      let reseeded =
        {
          submit with
          Protocol.config =
            (match quick_config_json with
            | Json.Obj kvs ->
              Json.Obj
                (List.map
                   (function
                     | "random_seed", _ ->
                       ("random_seed", Json.String "0x2a")
                     | kv -> kv)
                   kvs)
            | j -> j);
        }
      in
      (match Client.submit c reseeded with
      | Ok o ->
        Alcotest.(check bool) "random_seed is semantic" false o.Client.cached
      | Error e -> Alcotest.fail ("reseeded submit: " ^ e));
      (match Client.request c Protocol.Stats with
      | Ok (Json.Obj kvs) -> (
        match List.assoc_opt "cache" kvs with
        | Some (Json.Obj ckvs) ->
          Alcotest.(check bool) "stats count hits" true
            (match List.assoc_opt "hits" ckvs with
            | Some (Json.Int n) -> n >= 2
            | _ -> false)
        | _ -> Alcotest.fail "stats: no cache block")
      | Ok _ | Error _ -> Alcotest.fail "stats failed");
      (* Unknown job ids are protocol errors, not crashes. *)
      (match Client.request c (Protocol.Status "no-such-job") with
      | Error _ -> ()
      | Ok j -> (
        match j with
        | Json.Obj kvs
          when List.assoc_opt "kind" kvs = Some (Json.String "error") ->
          ()
        | _ -> Alcotest.fail "status on unknown job must error"));
      (* A netlist with nothing to scan and an out-of-range config value
         are job errors with a readable message, not escaped exceptions. *)
      let job_error what submit ~needle =
        match Client.submit c submit with
        | Ok _ -> Alcotest.failf "%s: accepted" what
        | Error e ->
          Alcotest.(check bool) (what ^ ": " ^ e) true
            (Helpers.contains_substring ~needle e
            && not
                 (List.exists
                    (fun raw -> Helpers.contains_substring ~needle:raw e)
                    [ "xception"; "Invalid_argument"; "Assert" ]))
      in
      job_error "no flip-flops"
        { submit with Protocol.netlist = "INPUT(a)\nOUTPUT(a)\n" }
        ~needle:"no flip-flops";
      job_error "frames [0]"
        {
          submit with
          Protocol.config = Json.Obj [ ("frames", Json.List [ Json.Int 0 ]) ];
        }
        ~needle:"config: \"frames\"")

let test_serve_cancel () =
  with_client "fst-cancel" (fun c ->
      let netlist =
        Fst_netlist.Netfile.to_string
          (Helpers.small_seq_circuit ~gates:200 ~ffs:12 9L)
      in
      let submit =
        {
          Protocol.kind = Protocol.Flow;
          netlist;
          name = "cancelme";
          chains = 1;
          config = quick_config_json;
          wait = false;
          tenant = "t1";
        }
      in
      let job =
        match Client.submit c submit with
        | Ok o -> o.Client.job
        | Error e -> Alcotest.fail ("submit: " ^ e)
      in
      (match Client.request c (Protocol.Cancel job) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("cancel: " ^ e));
      (* Result blocks until the job reaches a terminal state; a
         cancelled job answers with either a partial result (if it was
         already running) or an error frame — never a hang. *)
      (match Client.request c (Protocol.Result job) with
      | Ok _ | Error _ -> ());
      (match Client.request c (Protocol.Status job) with
      | Ok (Json.Obj kvs) ->
        let terminal =
          match List.assoc_opt "state" kvs with
          | Some (Json.String ("done" | "failed" | "cancelled")) -> true
          | _ -> false
        in
        Alcotest.(check bool) "cancelled job reaches a terminal state" true
          terminal
      | Ok _ | Error _ -> Alcotest.fail "status after cancel failed"))

(* No frame for a job may follow its result frame: the client reads the
   next request's reply right after a result, so one late heartbeat puts
   the connection out of step for good. Two workers serve two connections
   of waiting cache-hit submits, so a heartbeat round usually covers two
   running jobs, and a tiny heartbeat interval keeps it racing every
   job's completion. *)
let test_serve_no_heartbeat_after_result () =
  let kind j =
    match Json.member "kind" j with Some (Json.String k) -> k | _ -> ""
  in
  let dir = temp_dir "fst-hb" in
  let addr = Protocol.Unix_sock (Filename.concat dir "sock") in
  let server =
    Server.create ~workers:2 ~jobs_cap:1 ~hb_interval:1e-4 ~addr ()
  in
  let thread = Server.start server in
  let submit =
    {
      Protocol.kind = Protocol.Flow;
      netlist =
        Fst_netlist.Netfile.to_string
          (Helpers.small_seq_circuit ~gates:20 ~ffs:2 5L);
      name = "hb";
      chains = 1;
      config = quick_config_json;
      wait = true;
      tenant = "t1";
    }
  in
  (* One client's run: [n] submits on one connection, then a ping whose
     reply must be the very next frame. Returns the first violation. *)
  let client n =
    let c = connect_retry addr in
    let rec go i =
      if i > n then
        match Client.request c Protocol.Ping with
        | Ok j when kind j = "pong" -> None
        | Ok j -> Some ("ping answered by " ^ Json.to_string j)
        | Error e -> Some ("ping: " ^ e)
      else
        let frames = ref [] in
        match
          Client.submit ~on_frame:(fun l -> frames := l :: !frames) c submit
        with
        | Error e -> Some (Printf.sprintf "submit %d: %s" i e)
        | Ok o -> (
          let foreign =
            List.find_opt
              (fun l ->
                Json.member "job" (Json.of_string l)
                <> Some (Json.String o.Client.job))
              !frames
          in
          match (foreign, !frames) with
          | Some l, _ -> Some (Printf.sprintf "submit %d: stray frame %s" i l)
          | None, last :: _ when kind (Json.of_string last) = "result" ->
            go (i + 1)
          | None, _ -> Some (Printf.sprintf "submit %d: no final result" i))
    in
    let r = go 1 in
    Client.close c;
    r
  in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Thread.join thread)
    (fun () ->
      (* Warm the cache first so every concurrent submit is a hit. *)
      (match client 1 with
       | None -> ()
       | Some e -> Alcotest.fail ("cold submit: " ^ e));
      let results = Array.make 2 None in
      let threads =
        List.init 2 (fun k ->
            Thread.create (fun () -> results.(k) <- client 300) ())
      in
      List.iter Thread.join threads;
      Array.iter
        (function
          | None -> ()
          | Some e -> Alcotest.fail ("reply stream out of step: " ^ e))
        results)

(* --- bounded frame reads ------------------------------------------------- *)

(* The reader on a pipe, with a small cap: an over-cap line (here one that
   spans several of the reader's 64 KiB chunks) comes back [`Too_long]
   and is consumed in full, so the frames around it are intact. *)
let test_read_frame_bounded () =
  let rd, wr = Unix.pipe () in
  let writer =
    Thread.create
      (fun () ->
        let oc = Unix.out_channel_of_descr wr in
        output_string oc "ping\n12345678\n";
        output_string oc (String.make 200_000 'y');
        output_string oc "\n123456789\nafter\nlast";
        close_out oc)
      ()
  in
  let r = Protocol.reader (Unix.in_channel_of_descr rd) in
  let frames = List.init 7 (fun _ -> Protocol.read_frame ~cap:8 r) in
  Thread.join writer;
  Unix.close rd;
  let show = function
    | `Frame s -> "frame " ^ s
    | `Too_long -> "too long"
    | `Eof -> "eof"
  in
  Alcotest.(check (list string))
    "frames"
    [
      "frame ping"; "frame 12345678"; "too long"; "too long"; "frame after";
      "frame last"; "eof";
    ]
    (List.map show frames)

(* The client reads replies through the same bound: a peer that answers
   with an over-cap line gets an error naming the cap, not an unbounded
   buffer, and the next reply on the connection is intact. *)
let test_client_reply_bounded () =
  let dir = temp_dir "fst-client" in
  let path = Filename.concat dir "sock" in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 1;
  let peer =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listener in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        ignore (input_line ic);
        let chunk = String.make 65536 'x' in
        for _ = 0 to Protocol.max_frame_bytes / 65536 do
          output_string oc chunk
        done;
        output_string oc "\n";
        output_string oc (Json.to_string (Protocol.pong ()) ^ "\n");
        flush oc;
        ignore (input_line ic);
        Unix.close fd)
      ()
  in
  let client = Client.connect (Protocol.Unix_sock path) in
  let first = Client.request client Protocol.Ping in
  let second = Client.request client Protocol.Ping in
  Thread.join peer;
  Client.close client;
  Unix.close listener;
  (match first with
   | Ok j -> Alcotest.fail ("over-cap reply accepted: " ^ Json.to_string j)
   | Error e ->
     Alcotest.(check bool)
       ("error names the cap: " ^ e)
       true
       (Helpers.contains_substring
          ~needle:(string_of_int Protocol.max_frame_bytes)
          e));
  match second with
  | Ok j ->
    Alcotest.(check bool) "next reply intact" true
      (Json.member "kind" j = Some (Json.String "pong"))
  | Error e -> Alcotest.fail ("next reply lost: " ^ e)

(* A shutdown does not wait out the heartbeat interval: the heartbeat
   thread sleeps in slices and sees the stop flag within one. *)
let test_serve_prompt_shutdown () =
  let dir = temp_dir "fst-stop" in
  let addr = Protocol.Unix_sock (Filename.concat dir "sock") in
  let server =
    Server.create ~workers:1 ~jobs_cap:1 ~hb_interval:1.0 ~addr ()
  in
  let thread = Server.start server in
  Client.close (connect_retry addr);
  let t0 = Unix.gettimeofday () in
  Server.shutdown server;
  Thread.join thread;
  let dt = Unix.gettimeofday () -. t0 in
  if dt >= 0.25 then Alcotest.failf "shutdown took %.3f s" dt

(* An oversized frame gets an error naming the cap, and the same
   connection still answers a ping. *)
let test_serve_oversized_frame () =
  let dir = temp_dir "fst-frame" in
  let path = Filename.concat dir "sock" in
  let server =
    Server.create ~workers:1 ~jobs_cap:1 ~addr:(Protocol.Unix_sock path) ()
  in
  let thread = Server.start server in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Thread.join thread)
    (fun () ->
      Client.close (connect_retry (Protocol.Unix_sock path));
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      let chunk = String.make 65536 'x' in
      for _ = 0 to (Protocol.max_frame_bytes / 65536) do
        output_string oc chunk
      done;
      output_string oc "\n";
      output_string oc
        (Json.to_string (Protocol.request_to_json Protocol.Ping) ^ "\n");
      flush oc;
      let error = Json.of_string (input_line ic) in
      let pong = Json.of_string (input_line ic) in
      Unix.close fd;
      Alcotest.(check bool)
        ("over-cap frame is an error naming the cap: " ^ Json.to_string error)
        true
        (Json.member "kind" error = Some (Json.String "error")
        && Helpers.contains_substring
             ~needle:(string_of_int Protocol.max_frame_bytes)
             (Json.to_string error));
      Alcotest.(check bool) "connection still serves" true
        (Json.member "kind" pong = Some (Json.String "pong")))

(* Hostile frames on a live connection: a frame that is not JSON and a
   JSON frame with an unknown command each get an [error] frame, and a
   submit on the same connection is still served to its result. *)
let test_serve_hostile_frames () =
  let dir = temp_dir "fst-hostile" in
  let path = Filename.concat dir "sock" in
  let server =
    Server.create ~workers:1 ~jobs_cap:1 ~addr:(Protocol.Unix_sock path) ()
  in
  let thread = Server.start server in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Thread.join thread)
    (fun () ->
      Client.close (connect_retry (Protocol.Unix_sock path));
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      let send line =
        output_string oc (line ^ "\n");
        flush oc
      in
      let kind j =
        match Json.member "kind" j with Some (Json.String k) -> k | _ -> "?"
      in
      let expect_error what =
        let reply = Json.of_string (input_line ic) in
        Alcotest.(check string)
          (what ^ " is an error: " ^ Json.to_string reply)
          "error" (kind reply);
        reply
      in
      send "{not json";
      let garbage = expect_error "non-JSON frame" in
      Alcotest.(check bool) "says the request is not JSON" true
        (Helpers.contains_substring ~needle:"not JSON"
           (Json.to_string garbage));
      send
        (Json.to_string
           (Json.Obj
              [
                ("v", Json.Int Protocol.version);
                ("cmd", Json.String "launch");
              ]));
      let unknown = expect_error "unknown command" in
      Alcotest.(check bool) "names the unknown command" true
        (Helpers.contains_substring ~needle:"launch"
           (Json.to_string unknown));
      let netlist =
        Fst_netlist.Netfile.to_string
          (Helpers.small_seq_circuit ~gates:20 ~ffs:3 5L)
      in
      send
        (Json.to_string
           (Protocol.request_to_json
              (Protocol.Submit
                 {
                   Protocol.kind = Protocol.Lint;
                   netlist;
                   name = "small";
                   chains = 1;
                   config = Json.Obj [];
                   wait = true;
                   tenant = "t1";
                 })));
      let rec until_result kinds =
        let reply = Json.of_string (input_line ic) in
        match kind reply with
        | "result" -> List.rev ("result" :: kinds)
        | "error" -> Alcotest.fail ("submit failed: " ^ Json.to_string reply)
        | k -> until_result (k :: kinds)
      in
      let kinds = until_result [] in
      Unix.close fd;
      Alcotest.(check string) "submit acknowledged" "ack" (List.hd kinds))

let suite =
  [
    Alcotest.test_case "fingerprint ignores execution knobs" `Quick
      test_fingerprint_invariant;
    Alcotest.test_case "fingerprint tracks semantic knobs" `Quick
      test_fingerprint_sensitive;
    Alcotest.test_case "netlist hash is canonical" `Quick test_netlist_hash;
    Alcotest.test_case "cache key separates inputs" `Quick test_cache_key;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru;
    Alcotest.test_case "cache disk fallback" `Quick test_cache_disk;
    Alcotest.test_case "corrupt disk copy is not served" `Quick
      test_cache_disk_corrupt;
    Alcotest.test_case "protocol round-trips" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol rejects malformed" `Quick
      test_protocol_rejects;
    Alcotest.test_case "submit chain counts are bounded" `Quick
      test_submit_chains_bounded;
    Alcotest.test_case "serve end-to-end with cache hits" `Quick
      test_serve_end_to_end;
    Alcotest.test_case "serve cancel" `Quick test_serve_cancel;
    Alcotest.test_case "cache hit writes the miss's payload bytes" `Quick
      test_serve_hit_bytes;
    Alcotest.test_case "netlist memo keys on name and text" `Quick
      test_serve_text_memo;
    Alcotest.test_case "unparsable netlist is never remembered" `Quick
      test_serve_parse_error_not_memoised;
    Alcotest.test_case "job table keeps 1024 finished jobs" `Quick
      test_serve_job_table_bounded;
    Alcotest.test_case "serve sends no heartbeat after a result" `Quick
      test_serve_no_heartbeat_after_result;
    Alcotest.test_case "serve stops within a heartbeat slice" `Quick
      test_serve_prompt_shutdown;
    Alcotest.test_case "frame reads are bounded" `Quick
      test_read_frame_bounded;
    Alcotest.test_case "client reply reads are bounded" `Quick
      test_client_reply_bounded;
    Alcotest.test_case "serve survives an oversized frame" `Quick
      test_serve_oversized_frame;
    Alcotest.test_case "serve answers hostile frames and keeps serving"
      `Quick test_serve_hostile_frames;
  ]
