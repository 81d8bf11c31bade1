(* The deterministic chaos-injection harness: plan semantics, counter
   snapshot/restore, and its interaction with Retry and the isolated
   pool maps. Every test clears the global harness on exit — a leaked
   plan would poison unrelated suites. *)

module Chaos = Fst_exec.Chaos
module Retry = Fst_exec.Retry
module Pool = Fst_exec.Pool

let with_plan plan f =
  Chaos.install plan;
  Fun.protect ~finally:Chaos.clear f

(* Retry policy for tests: same classification, no real sleeping. *)
let fast_retry = { Retry.default with Retry.sleep = (fun _ -> ()) }

let test_disarmed_noop () =
  Chaos.clear ();
  Alcotest.(check bool) "inactive" false (Chaos.active ());
  Alcotest.(check bool) "point is Ok" true (Chaos.point Chaos.Engine = `Ok);
  Alcotest.(check bool) "snapshot empty" true (Chaos.snapshot () = [||])

let test_plan_of_seed_deterministic () =
  let p1 = Chaos.plan_of_seed ~p:0.2 ~span:100 42 in
  let p2 = Chaos.plan_of_seed ~p:0.2 ~span:100 42 in
  let p3 = Chaos.plan_of_seed ~p:0.2 ~span:100 43 in
  Alcotest.(check string) "same seed, same plan" (Chaos.pp_plan p1)
    (Chaos.pp_plan p2);
  Alcotest.(check bool) "plan is non-trivial" true (List.length p1 > 0);
  Alcotest.(check bool) "different seed, different plan" true
    (Chaos.pp_plan p1 <> Chaos.pp_plan p3)

let test_point_fires_at_sequence () =
  with_plan
    [ { Chaos.site = Chaos.Engine; at = 2; action = Chaos.Raise } ]
    (fun () ->
      Alcotest.(check bool) "hit 0 clean" true (Chaos.point Chaos.Engine = `Ok);
      Alcotest.(check bool) "hit 1 clean" true (Chaos.point Chaos.Engine = `Ok);
      (match Chaos.point Chaos.Engine with
       | exception Chaos.Injected why ->
         Alcotest.(check string) "payload names site#at" "engine#2" why
       | _ -> Alcotest.fail "hit 2 should raise");
      Alcotest.(check bool) "hit 3 clean" true (Chaos.point Chaos.Engine = `Ok);
      (* Other sites keep independent counters. *)
      Alcotest.(check bool) "other site untouched" true
        (Chaos.point Chaos.Pool_task = `Ok))

let test_cancel_and_delay () =
  with_plan
    [
      { Chaos.site = Chaos.Pool_task; at = 0; action = Chaos.Cancel };
      (* An absurd delay must be clamped to [max_delay]. *)
      { Chaos.site = Chaos.Pool_task; at = 1; action = Chaos.Delay 1000.0 };
    ]
    (fun () ->
      Alcotest.(check bool) "cancel surfaces" true
        (Chaos.point Chaos.Pool_task = `Cancel);
      let t0 = Fst_exec.Clock.now () in
      Alcotest.(check bool) "delay returns Ok" true
        (Chaos.point Chaos.Pool_task = `Ok);
      Alcotest.(check bool) "delay clamped" true
        (Fst_exec.Clock.now () -. t0 < 10.0 *. Chaos.max_delay +. 0.5))

let test_snapshot_restore () =
  with_plan
    [ { Chaos.site = Chaos.Engine; at = 1; action = Chaos.Raise } ]
    (fun () ->
      ignore (Chaos.point Chaos.Engine);
      let snap = Chaos.snapshot () in
      (match Chaos.point Chaos.Engine with
       | exception Chaos.Injected _ -> ()
       | _ -> Alcotest.fail "hit 1 should raise");
      (* Restoring rewinds the counters: the same injection replays. *)
      Chaos.restore snap;
      match Chaos.point Chaos.Engine with
      | exception Chaos.Injected _ -> ()
      | _ -> Alcotest.fail "restored hit 1 should raise again")

let test_injected_is_transient () =
  Alcotest.(check bool) "is_injected" true
    (Chaos.is_injected (Chaos.Injected "engine#0"));
  Alcotest.(check bool) "other exceptions are not" false
    (Chaos.is_injected Exit);
  Alcotest.(check bool) "Retry classifies it transient" true
    (Retry.default.Retry.transient (Chaos.Injected "engine#0"))

(* A one-shot injection at the pool-task site is absorbed by the retry;
   the map still returns all-Ok. *)
let test_pool_retry_absorbs_one_shot () =
  with_plan
    [ { Chaos.site = Chaos.Pool_task; at = 1; action = Chaos.Raise } ]
    (fun () ->
      let got =
        Pool.map_cancellable_isolated ~jobs:1 ~retry:fast_retry Fun.id
          [| 0; 1; 2; 3 |]
      in
      Array.iteri
        (fun i o ->
          Alcotest.(check bool)
            (Printf.sprintf "slot %d ok" i)
            true
            (o = Pool.Task.Ok i))
        got)

(* A plan that keeps firing defeats the retries: every task is
   quarantined with the injected exception, none of them drains the
   queue. *)
let test_pool_repeated_injection_quarantines () =
  with_plan
    (List.init 32 (fun at ->
         { Chaos.site = Chaos.Pool_task; at; action = Chaos.Raise }))
    (fun () ->
      let got =
        Pool.map_cancellable_isolated ~jobs:1 ~retry:fast_retry Fun.id
          [| 0; 1; 2 |]
      in
      Array.iteri
        (fun i o ->
          match o with
          | Pool.Task.Failed (e, _) ->
            Alcotest.(check bool)
              (Printf.sprintf "slot %d injected" i)
              true (Chaos.is_injected e)
          | _ -> Alcotest.failf "slot %d should be quarantined" i)
        got)

let test_site_names_and_pp () =
  Alcotest.(check string) "pool-task" "pool-task"
    (Chaos.site_name Chaos.Pool_task);
  Alcotest.(check string) "engine" "engine" (Chaos.site_name Chaos.Engine);
  Alcotest.(check string) "ckpt-save" "ckpt-save"
    (Chaos.site_name Chaos.Ckpt_save);
  Alcotest.(check string) "ckpt-load" "ckpt-load"
    (Chaos.site_name Chaos.Ckpt_load);
  let s =
    Chaos.pp_plan [ { Chaos.site = Chaos.Engine; at = 3; action = Chaos.Raise } ]
  in
  Alcotest.(check bool) "pp mentions the site" true
    (String.length s > 0 && String.sub s 0 6 = "engine")

let suite =
  [
    Alcotest.test_case "disarmed harness is a no-op" `Quick test_disarmed_noop;
    Alcotest.test_case "plan_of_seed deterministic" `Quick
      test_plan_of_seed_deterministic;
    Alcotest.test_case "point fires at planned sequence" `Quick
      test_point_fires_at_sequence;
    Alcotest.test_case "cancel and clamped delay" `Quick test_cancel_and_delay;
    Alcotest.test_case "snapshot/restore replays" `Quick test_snapshot_restore;
    Alcotest.test_case "Injected is transient" `Quick test_injected_is_transient;
    Alcotest.test_case "retry absorbs one-shot injection" `Quick
      test_pool_retry_absorbs_one_shot;
    Alcotest.test_case "repeated injection quarantines" `Quick
      test_pool_repeated_injection_quarantines;
    Alcotest.test_case "site names and plan printing" `Quick
      test_site_names_and_pp;
  ]
