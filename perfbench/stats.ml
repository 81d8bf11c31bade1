(* Order statistics, metric names and the result line. *)

module Json = Fst_obs.Json

(* A reported percentile must have at least this many samples beyond it,
   so that a tail is never set by one or two outliers. *)
let min_beyond = 10

(* Nearest-rank percentile [p] (an integer percent) of [samples]: the
   value at rank ceil(p * n / 100) of the sorted samples. Refused unless
   at least [min_beyond] samples lie beyond that rank. *)
let percentile p samples =
  let n = Array.length samples in
  if p < 1 || p > 100 then Error (Printf.sprintf "p%d is not a percentile" p)
  else if n = 0 then Error "no samples"
  else begin
    let rank = max 1 (((p * n) + 99) / 100) in
    let beyond = n - rank in
    if beyond < min_beyond then
      Error
        (Printf.sprintf "p%d of %d samples has %d beyond it, needs %d" p n
           beyond min_beyond)
    else begin
      let a = Array.copy samples in
      Array.sort Float.compare a;
      Ok a.(rank - 1)
    end
  end

(* The median of a few repeats of one measurement (set-up times, pass
   walls). Unlike [percentile] this describes repeats of the same work,
   not a distribution over different operations, so it has no sample
   floor. *)
let median samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let alnum = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
    | _ -> false
  in
  String.length s > 0 && String.length s <= 64 && alnum s.[0]
  && String.for_all ok_char s

type metric = { name : string; unit_ : string; value : float }

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  ( m.name,
                    Json.Obj
                      [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]
                  ))
                metrics) );
       ])
