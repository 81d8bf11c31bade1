type t = { mutable state : int64 }

let create seed = { state = seed }
let state t = t.state

let next_int64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Shift by 2 so the result fits OCaml's 63-bit int as a non-negative. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let float t =
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int r /. 9007199254740992.0 (* 2^53 *)

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let weighted t choices =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 choices in
  if total <= 0 then invalid_arg "Rng.weighted: weights must be positive";
  let r = int t total in
  let rec walk acc = function
    | [] -> invalid_arg "Rng.weighted: empty"
    | (w, v) :: rest -> if r < acc + w then v else walk (acc + w) rest
  in
  walk 0 choices
