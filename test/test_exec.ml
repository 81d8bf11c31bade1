module Pool = Fst_exec.Pool
module Clock = Fst_exec.Clock
module Q = QCheck

exception Boom of int

let squares n = Array.init n (fun i -> i)

let map = Pool.map_array

let test_deterministic_order () =
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          let xs = squares n in
          let expect = Array.map (fun x -> x * x) xs in
          let got = map ~jobs (fun x -> x * x) xs in
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d n=%d" jobs n)
            expect got)
        [ 0; 1; 2; 3; 7; 63; 200 ])
    [ 1; 2; 4; 8 ]

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      match
        map ~jobs
          (fun x -> if x mod 5 = 3 then raise (Boom x) else x)
          (squares 40)
      with
      | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
      (* The lowest failing index wins deterministically. *)
      | exception Boom v -> Alcotest.(check int) "first failure" 3 v)
    [ 1; 2; 8 ]

let test_chunk_override () =
  let xs = squares 17 in
  let got = map ~chunk:1 ~jobs:4 (fun x -> x + 1) xs in
  Alcotest.(check (array int)) "chunk=1" (Array.map (fun x -> x + 1) xs) got;
  let got = map ~chunk:100 ~jobs:4 (fun x -> x + 1) xs in
  Alcotest.(check (array int))
    "chunk>n" (Array.map (fun x -> x + 1) xs) got

(* Tasks run with real shared-memory parallelism yet results land in input
   order even when early tasks finish last. *)
let test_order_independent_of_duration () =
  let n = 24 in
  let got =
    map ~jobs:4
      (fun i ->
        (* Earlier indices spin longer, so completion order is reversed. *)
        let spin = (n - i) * 2000 in
        let acc = ref 0 in
        for k = 1 to spin do
          acc := !acc + k
        done;
        ignore !acc;
        i)
      (squares n)
  in
  Alcotest.(check (array int)) "input order" (squares n) got

let prop_matches_sequential =
  Q.Test.make ~name:"pool map_array = Array.map for any jobs" ~count:50
    Q.(pair (int_bound 7) (list_of_size (Gen.int_bound 50) small_int))
    (fun (jobs, xs) ->
      let xs = Array.of_list xs in
      let f x = (x * 31) lxor 5 in
      map ~jobs:(jobs + 1) f xs = Array.map f xs)

(* --- work stealing, min-work fallback ----------------------------------- *)

(* Tests that need two domains to actually run concurrently are skipped
   on single-core machines, where the pool (correctly) clamps the worker
   count to one and the cross-domain rendezvous below would spin
   forever. *)
let multicore = Pool.default_jobs () >= 2

(* Worker 0's first task blocks until its range's second task has run —
   which only a thief (worker 1, done with its own range) can reach,
   since worker 0 is stuck. Progress therefore proves stealing works;
   the [pool.steal.steals] counter proves it was counted. *)
let test_steal_unblocks_stuck_owner () =
  if not multicore then ()
  else begin
  let metrics = Fst_obs.Metrics.create () in
  let obs = Fst_obs.Sink.create ~metrics () in
  let flag = Atomic.make false in
  let got =
    map ~obs ~label:"steal" ~jobs:2 ~chunk:1
      (fun x ->
        if x = 0 then
          while not (Atomic.get flag) do
            Domain.cpu_relax ()
          done
        else if x = 1 then Atomic.set flag true;
        x * 7)
      (squares 4)
  in
  Alcotest.(check (array int))
    "results in input order"
    (Array.map (fun x -> x * 7) (squares 4))
    got;
  let steals =
    Fst_obs.Metrics.Counter.value
      (Fst_obs.Metrics.counter metrics "pool.steal.steals")
  in
  Alcotest.(check bool) "at least one steal counted" true (steals >= 1)
  end

(* A workload whose estimated [work] is under the threshold runs on the
   calling domain no matter what [jobs] says. *)
let test_min_work_runs_in_caller () =
  let self = Domain.self () in
  let ran_here = Atomic.make true in
  let got =
    map ~jobs:8 ~work:(Pool.min_work - 1)
      (fun x ->
        if Domain.self () <> self then Atomic.set ran_here false;
        x + 1)
      (squares 32)
  in
  Alcotest.(check (array int))
    "results" (Array.map (fun x -> x + 1) (squares 32)) got;
  Alcotest.(check bool) "all tasks ran on the caller" true
    (Atomic.get ran_here);
  (* At or above the threshold the pool spawns (when the machine has
     cores to spawn onto). Every task waits until two distinct domains
     have participated (with a deadline escape), so a second domain is
     guaranteed to have claimed work — a fast caller cannot race through
     the whole queue alone. *)
  if multicore then begin
    let two_seen = Atomic.make false in
    let first = Atomic.make None in
    let deadline = Clock.after 10.0 in
    ignore
      (map ~jobs:4 ~chunk:1 ~work:Pool.min_work
         (fun x ->
           let me = Domain.self () in
           (match Atomic.get first with
            | None -> ignore (Atomic.compare_and_set first None (Some me))
            | Some d -> if d <> me then Atomic.set two_seen true);
           while not (Atomic.get two_seen || Clock.expired deadline) do
             Domain.cpu_relax ()
           done;
           x)
         (squares 64));
    Alcotest.(check bool) "above threshold spawns domains" true
      (Atomic.get two_seen)
  end

(* [jobs] beyond the hardware core count is clamped: no matter how large
   the request, at most [default_jobs ()] distinct domains ever
   participate (oversubscribed domains only thrash the minor-GC
   barrier). *)
let test_jobs_clamped_to_cores () =
  let seen = Atomic.make [] in
  let rec note me =
    let ds = Atomic.get seen in
    if (not (List.mem me ds)) && not (Atomic.compare_and_set seen ds (me :: ds))
    then note me
  in
  let got =
    map ~jobs:64 ~chunk:1
      (fun x ->
        note (Domain.self ());
        x + 3)
      (squares 128)
  in
  Alcotest.(check (array int))
    "results" (Array.map (fun x -> x + 3) (squares 128)) got;
  let distinct = List.length (Atomic.get seen) in
  Alcotest.(check bool)
    (Printf.sprintf "%d distinct domains <= %d cores" distinct
       (Pool.default_jobs ()))
    true
    (distinct >= 1 && distinct <= Pool.default_jobs ())

(* The [pool] spans of a trace, as (name, args). *)
let pool_spans trace =
  let module Json = Fst_obs.Json in
  match Json.member "traceEvents" (Fst_obs.Trace.to_json trace) with
  | Some (Json.List evs) ->
    List.filter_map
      (fun e ->
        match (Json.member "cat" e, Json.member "name" e) with
        | Some (Json.String "pool"), Some (Json.String name) ->
          let args =
            match Json.member "args" e with Some (Json.Obj kvs) -> kvs | _ -> []
          in
          Some (name, args)
        | _ -> None)
      evs
  | _ -> []

(* A map called from inside another map's task (step 3's per-group fault
   simulation) records no pool accounting of its own: the enclosing
   chunk's span and busy time already cover it. *)
let test_nested_map_not_double_counted () =
  List.iter
    (fun jobs ->
      let trace = Fst_obs.Trace.create () in
      let metrics = Fst_obs.Metrics.create () in
      let obs = Fst_obs.Sink.create ~metrics ~trace () in
      let got =
        Pool.map_cancellable_isolated ~obs ~label:"outer" ~jobs ~chunk:1
          (fun x ->
            Array.fold_left ( + ) 0
              (map ~obs ~label:"inner" ~jobs:1 (fun y -> x * y) (squares 4)))
          (squares 6)
      in
      Alcotest.(check bool)
        (Printf.sprintf "results jobs=%d" jobs)
        true
        (Array.for_all2
           (fun o x -> o = Pool.Task.Ok (6 * x))
           got (squares 6));
      let spans = pool_spans trace in
      let labels =
        List.sort_uniq String.compare
          (List.map
             (fun (name, _) -> List.hd (String.split_on_char '[' name))
             spans)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "only the outer map has pool spans jobs=%d" jobs)
        [ "outer" ] labels;
      Alcotest.(check int)
        (Printf.sprintf "one span per outer chunk jobs=%d" jobs)
        6 (List.length spans);
      Alcotest.(check int)
        (Printf.sprintf "outer chunks counted jobs=%d" jobs)
        6
        (Fst_obs.Metrics.Counter.value
           (Fst_obs.Metrics.counter metrics "pool.outer.chunks"));
      Alcotest.(check int)
        (Printf.sprintf "inner map counts nothing jobs=%d" jobs)
        0
        (Fst_obs.Metrics.Counter.value
           (Fst_obs.Metrics.counter metrics "pool.inner.chunks")))
    [ 1; 2 ]

(* --- cooperative cancellation ------------------------------------------ *)

let test_cancellable_no_stop () =
  List.iter
    (fun jobs ->
      let got =
        Pool.map_cancellable_isolated ~jobs (fun x -> x * x) (squares 30)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "all done jobs=%d" jobs)
        (Array.map (fun x -> x * x) (squares 30))
        (Array.map
           (function
             | Pool.Task.Ok y -> y
             | Pool.Task.Failed _ | Pool.Task.Cancelled -> -1)
           got))
    [ 1; 4 ]

(* Sequential path: the stop flag is checked between tasks, so the [Ok]
   prefix is exactly the tasks that ran before the cancel. *)
let test_cancel_exact_prefix () =
  let tok = Pool.token () in
  let got =
    Pool.map_cancellable_isolated ~jobs:1 ~token:tok
      (fun x ->
        if x = 5 then Pool.cancel tok;
        x * 2)
      (squares 12)
  in
  Array.iteri
    (fun i o ->
      let expect =
        if i <= 5 then Pool.Task.Ok (i * 2) else Pool.Task.Cancelled
      in
      Alcotest.(check bool) (Printf.sprintf "slot %d" i) true (o = expect))
    got

let test_expired_deadline_drains_everything () =
  List.iter
    (fun jobs ->
      let got =
        Pool.map_cancellable_isolated ~jobs ~deadline:(Clock.after (-1.0))
          (fun x -> x)
          (squares 20)
      in
      Alcotest.(check bool)
        (Printf.sprintf "all cancelled jobs=%d" jobs)
        true
        (Array.for_all (fun o -> o = Pool.Task.Cancelled) got))
    [ 1; 2; 4 ]

(* Tasks that block until the deadline expires: the claimed ones finish,
   and everything behind them in the queue comes back [Cancelled]. *)
let test_blocking_tasks_respect_deadline () =
  let deadline = Clock.after 0.05 in
  let got =
    Pool.map_cancellable_isolated ~jobs:2 ~chunk:1 ~deadline
      (fun x ->
        while not (Clock.expired deadline) do
          Domain.cpu_relax ()
        done;
        x)
      (squares 6)
  in
  let done_count =
    Array.fold_left
      (fun n o ->
        match o with
        | Pool.Task.Ok _ -> n + 1
        | Pool.Task.Failed _ | Pool.Task.Cancelled -> n)
      0 got
  in
  (* Only the tasks claimed before the deadline ran (at most one per
     domain, since each blocks until expiry). Each worker owns a
     contiguous range of the index space and claims its own range first,
     so the finished slots can only be the heads of the two worker
     ranges; everything else drained [Cancelled]. *)
  Alcotest.(check bool) "some but not all tasks ran" true
    (done_count >= 1 && done_count <= 2);
  Array.iteri
    (fun i o ->
      match o with
      | Pool.Task.Ok v ->
        Alcotest.(check int) (Printf.sprintf "slot %d value" i) i v;
        Alcotest.(check bool)
          (Printf.sprintf "slot %d is a range head" i)
          true
          (i = 0 || i = 3)
      | Pool.Task.Failed _ -> Alcotest.failf "slot %d failed" i
      | Pool.Task.Cancelled -> ())
    got

(* Fault injection: wherever the cancel lands and whatever [jobs] is, every
   [Ok] slot carries the result for its own input (partial results are in
   input order), and the task that tripped the token always completed. *)
let prop_cancel_partial_results_ordered =
  Q.Test.make ~name:"cancellation keeps partial results in input order"
    ~count:100
    Q.(triple (int_bound 7) (int_bound 60) (int_bound 60))
    (fun (jobs, n, cancel_at) ->
      let jobs = jobs + 1 and n = n + 1 in
      let cancel_at = cancel_at mod n in
      let tok = Pool.token () in
      let got =
        Pool.map_cancellable_isolated ~jobs ~token:tok
          (fun x ->
            if x = cancel_at then Pool.cancel tok;
            (x * 13) lxor 3)
          (squares n)
      in
      let ok =
        ref
          (Array.length got = n
          && got.(cancel_at) = Pool.Task.Ok ((cancel_at * 13) lxor 3))
      in
      Array.iteri
        (fun i o ->
          match o with
          | Pool.Task.Ok y -> if y <> (i * 13) lxor 3 then ok := false
          | Pool.Task.Failed _ -> ok := false
          | Pool.Task.Cancelled -> ())
        got;
      !ok)

(* --- fault-isolated maps ------------------------------------------------ *)

module Retry = Fst_exec.Retry

(* Test policy: identical semantics, no real backoff sleeping. *)
let fast_retry = { Retry.default with Retry.sleep = (fun _ -> ()) }

let test_isolated_all_ok () =
  List.iter
    (fun jobs ->
      let got =
        Pool.map_cancellable_isolated ~jobs (fun x -> x * x) (squares 20)
      in
      Array.iteri
        (fun i o ->
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d slot %d" jobs i)
            true
            (o = Pool.Task.Ok (i * i)))
        got)
    [ 1; 4 ]

(* The whole point of isolation: a poison task lands in its own slot as
   [Failed] and its siblings still complete. *)
let test_isolated_poison_quarantined () =
  List.iter
    (fun jobs ->
      let got =
        Pool.map_cancellable_isolated ~jobs ~retry:Retry.no_retry
          (fun x -> if x mod 7 = 3 then raise (Boom x) else x)
          (squares 20)
      in
      Array.iteri
        (fun i o ->
          match o with
          | Pool.Task.Ok v ->
            Alcotest.(check int) (Printf.sprintf "slot %d value" i) i v;
            Alcotest.(check bool)
              (Printf.sprintf "slot %d should have failed" i)
              false (i mod 7 = 3)
          | Pool.Task.Failed (Boom v, _) ->
            Alcotest.(check int) (Printf.sprintf "slot %d payload" i) i v;
            Alcotest.(check bool)
              (Printf.sprintf "slot %d should have succeeded" i)
              true (i mod 7 = 3)
          | _ -> Alcotest.failf "slot %d unexpected outcome" i)
        got)
    [ 1; 4 ]

(* A transient failure is retried within the bounded attempt budget and
   the task still comes back [Ok]; clean tasks run exactly once. *)
let test_isolated_retry_transient () =
  let tries = Array.make 10 0 in
  let policy =
    { fast_retry with Retry.attempts = 3; transient = (fun _ -> true) }
  in
  let got =
    Pool.map_cancellable_isolated ~jobs:1 ~retry:policy
      (fun x ->
        tries.(x) <- tries.(x) + 1;
        if x = 4 && tries.(x) < 3 then raise (Boom x) else x)
      (squares 10)
  in
  Array.iteri
    (fun i o ->
      Alcotest.(check bool)
        (Printf.sprintf "slot %d ok" i)
        true
        (o = Pool.Task.Ok i))
    got;
  Alcotest.(check int) "flaky task used its attempts" 3 tries.(4);
  Alcotest.(check int) "clean task ran once" 1 tries.(0)

let test_isolated_retry_exhausted () =
  let tries = ref 0 in
  let policy =
    { fast_retry with Retry.attempts = 2; transient = (fun _ -> true) }
  in
  let got =
    Pool.map_cancellable_isolated ~jobs:1 ~retry:policy
      (fun x ->
        if x = 2 then begin
          incr tries;
          raise (Boom x)
        end
        else x)
      (squares 5)
  in
  Alcotest.(check int) "attempts bounded" 2 !tries;
  Array.iteri
    (fun i o ->
      if i = 2 then
        match o with
        | Pool.Task.Failed (Boom 2, _) -> ()
        | _ -> Alcotest.fail "poison slot should be Failed (Boom 2)"
      else
        Alcotest.(check bool)
          (Printf.sprintf "slot %d ok" i)
          true
          (o = Pool.Task.Ok i))
    got

let test_isolated_expired_deadline_cancels () =
  List.iter
    (fun jobs ->
      let got =
        Pool.map_cancellable_isolated ~jobs ~deadline:(Clock.after (-1.0))
          (fun x -> x)
          (squares 12)
      in
      Alcotest.(check bool)
        (Printf.sprintf "all cancelled jobs=%d" jobs)
        true
        (Array.for_all (fun o -> o = Pool.Task.Cancelled) got))
    [ 1; 4 ]

(* Outcomes are merged in input order regardless of jobs, and for a pure
   function the isolated map agrees with the plain one. *)
let prop_isolated_matches_map =
  Q.Test.make ~name:"isolated map matches plain map for pure tasks"
    ~count:100
    Q.(pair (int_bound 7) (int_bound 80))
    (fun (jobs, n) ->
      let jobs = jobs + 1 in
      let xs = squares n in
      let expect = Array.map (fun x -> (x * 31) lxor 5) xs in
      let got =
        Pool.map_cancellable_isolated ~jobs (fun x -> (x * 31) lxor 5) xs
      in
      Array.length got = n
      && Array.for_all2 (fun o e -> o = Pool.Task.Ok e) got expect)

(* Fault injection over random poison sets: every poison index is
   [Failed] with its own exception, everything else is [Ok] — no
   cross-contamination at any [jobs]. *)
let prop_isolated_poison_set =
  Q.Test.make ~name:"isolated map quarantines exactly the poison set"
    ~count:100
    Q.(triple (int_bound 7) (int_bound 40) (int_bound 1000))
    (fun (jobs, n, mask) ->
      let jobs = jobs + 1 and n = n + 1 in
      let poison i = (mask lsr (i mod 10)) land 1 = 1 in
      let got =
        Pool.map_cancellable_isolated ~jobs ~retry:Retry.no_retry
          (fun x -> if poison x then raise (Boom x) else x)
          (squares n)
      in
      Array.length got = n
      && Array.for_all
           (fun o ->
             match o with
             | Pool.Task.Ok v -> not (poison v)
             | Pool.Task.Failed (Boom v, _) -> poison v
             | _ -> false)
           got)

let suite =
  [
    Alcotest.test_case "deterministic merge order" `Quick
      test_deterministic_order;
    Alcotest.test_case "exception propagation" `Quick
      test_exception_propagates;
    Alcotest.test_case "chunk override" `Quick test_chunk_override;
    Alcotest.test_case "order independent of task duration" `Quick
      test_order_independent_of_duration;
    Helpers.qcheck prop_matches_sequential;
    Alcotest.test_case "stealing unblocks a stuck owner" `Quick
      test_steal_unblocks_stuck_owner;
    Alcotest.test_case "min-work fallback runs in caller" `Quick
      test_min_work_runs_in_caller;
    Alcotest.test_case "jobs clamped to core count" `Quick
      test_jobs_clamped_to_cores;
    Alcotest.test_case "nested map is not double counted" `Quick
      test_nested_map_not_double_counted;
    Alcotest.test_case "cancellable without stop = map" `Quick
      test_cancellable_no_stop;
    Alcotest.test_case "cancel gives exact sequential prefix" `Quick
      test_cancel_exact_prefix;
    Alcotest.test_case "expired deadline drains everything" `Quick
      test_expired_deadline_drains_everything;
    Alcotest.test_case "blocking tasks respect deadline" `Quick
      test_blocking_tasks_respect_deadline;
    Helpers.qcheck prop_cancel_partial_results_ordered;
    Alcotest.test_case "isolated map all ok" `Quick test_isolated_all_ok;
    Alcotest.test_case "isolated map quarantines poison" `Quick
      test_isolated_poison_quarantined;
    Alcotest.test_case "isolated map retries transients" `Quick
      test_isolated_retry_transient;
    Alcotest.test_case "isolated map bounds retry attempts" `Quick
      test_isolated_retry_exhausted;
    Alcotest.test_case "isolated map honors deadline" `Quick
      test_isolated_expired_deadline_cancels;
    Helpers.qcheck prop_isolated_matches_map;
    Helpers.qcheck prop_isolated_poison_set;
  ]
