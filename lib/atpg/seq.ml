open Fst_logic
module Clock = Fst_exec.Clock
module Scoap = Fst_testability.Scoap

type test = {
  frames : int;
  init_state : (int * V3.t) list;
  pi_frames : (int * V3.t) list array;
}

type result = Seq_test of test | Seq_aborted
type stats = {
  runs : int;
  backtracks : int;
  stops : int array;
  build_s : float;
  search_s : float;
  models_built : int;
}

(* Models already built for one set of run parameters, by frame count. *)
type memo = { mutable models : (int * (Unroll.t * Scoap.t)) list }

let memo () = { models = [] }

let test_of_assignment u frames assignment =
  let init_state = ref [] in
  let pi_frames = Array.make frames [] in
  List.iter
    (fun (net, v) ->
      match Unroll.origin u net with
      | Unroll.Pi { frame; net } -> pi_frames.(frame) <- (net, v) :: pi_frames.(frame)
      | Unroll.State ff -> init_state := (ff, v) :: !init_state)
    assignment;
  { frames; init_state = !init_state; pi_frames }

let run ?should_abort ?memo c ~constraints ~controllable_ff ~observable_ff
    ~fault ~frames_list ~backtrack_limit =
  let runs = ref 0 and backtracks = ref 0 in
  let build_s = ref 0.0 and search_s = ref 0.0 in
  let models_built = ref 0 in
  let timed acc f =
    let t0 = Clock.now () in
    let r = f () in
    acc := !acc +. (Clock.now () -. t0);
    r
  in
  let stops = Array.make (List.length Podem.all_stops) 0 in
  let aborting () =
    match should_abort with None -> false | Some f -> f ()
  in
  let stats () =
    {
      runs = !runs;
      backtracks = !backtracks;
      stops;
      build_s = !build_s;
      search_s = !search_s;
      models_built = !models_built;
    }
  in
  let add (st : Podem.stats) =
    backtracks := !backtracks + st.Podem.backtracks;
    let k = Podem.stop_index st.Podem.stop in
    stops.(k) <- stops.(k) + 1
  in
  let build frames =
    timed build_s (fun () ->
        incr models_built;
        let u =
          Unroll.build c ~frames ~constraints ~controllable_ff ~observable_ff
        in
        (u, Scoap.compute u.Unroll.view))
  in
  let model frames =
    match memo with
    | None -> build frames
    | Some m -> (
      match List.assoc_opt frames m.models with
      | Some model -> model
      | None ->
        let model = build frames in
        m.models <- (frames, model) :: m.models;
        model)
  in
  let rec try_frames = function
    | [] -> (Seq_aborted, stats ())
    | _ :: _ when aborting () -> (Seq_aborted, stats ())
    | frames :: rest -> (
      let u, scoap = model frames in
      let faults = Unroll.map_fault u fault in
      incr runs;
      match
        timed search_s (fun () ->
            Podem.run ~backtrack_limit ?should_abort ~scoap u.Unroll.view
              ~faults)
      with
      | Podem.Test assignment, st ->
        add st;
        (Seq_test (test_of_assignment u frames assignment), stats ())
      | (Podem.Untestable | Podem.Aborted), st ->
        add st;
        try_frames rest)
  in
  try_frames frames_list
