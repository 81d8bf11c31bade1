open Fst_netlist
module Json = Fst_obs.Json

type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type location = {
  file : string option;
  line : int option;
  net : int option;
  net_name : string option;
  chain : int option;
  segment : int option;
}

let no_loc =
  { file = None; line = None; net = None; net_name = None; chain = None;
    segment = None }

let at ?lines ?file c net =
  let line =
    match lines with
    | Some table when net < Array.length table && table.(net) > 0 ->
      Some table.(net)
    | Some _ | None -> None
  in
  { file; line; net = Some net; net_name = Some (Circuit.net_name c net);
    chain = None; segment = None }

type t = {
  rule : string;
  severity : severity;
  loc : location;
  message : string;
}

let make ~rule ~severity ?(loc = no_loc) message =
  { rule; severity; loc; message }

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let opt_cmp cmp a b =
  match a, b with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> cmp x y

let compare a b =
  let ( <?> ) c next = if c <> 0 then c else next () in
  Stdlib.compare (severity_rank a.severity) (severity_rank b.severity)
  <?> fun () ->
  String.compare a.rule b.rule
  <?> fun () ->
  opt_cmp Stdlib.compare a.loc.chain b.loc.chain
  <?> fun () ->
  opt_cmp Stdlib.compare a.loc.segment b.loc.segment
  <?> fun () ->
  opt_cmp Stdlib.compare a.loc.net b.loc.net
  <?> fun () ->
  opt_cmp Stdlib.compare a.loc.line b.loc.line
  <?> fun () -> String.compare a.message b.message

let key d =
  let b = Buffer.create 32 in
  Buffer.add_string b d.rule;
  Buffer.add_char b '@';
  Buffer.add_string b (Option.value ~default:"-" d.loc.net_name);
  (match d.loc.chain, d.loc.segment with
   | Some c, Some s -> Buffer.add_string b (Printf.sprintf "@%d.%d" c s)
   | Some c, None -> Buffer.add_string b (Printf.sprintf "@%d" c)
   | None, _ -> ());
  Buffer.contents b

let to_string d =
  let b = Buffer.create 80 in
  (match d.loc.file, d.loc.line with
   | Some f, Some l -> Buffer.add_string b (Printf.sprintf "%s:%d: " f l)
   | Some f, None -> Buffer.add_string b (Printf.sprintf "%s: " f)
   | None, Some l -> Buffer.add_string b (Printf.sprintf "line %d: " l)
   | None, None -> ());
  Buffer.add_string b (severity_to_string d.severity);
  Buffer.add_char b ' ';
  Buffer.add_string b d.rule;
  Buffer.add_string b ": ";
  Buffer.add_string b d.message;
  Buffer.contents b

let to_json d =
  let opt k f v fields =
    match v with Some v -> (k, f v) :: fields | None -> fields
  in
  let fields =
    []
    |> opt "segment" (fun s -> Json.Int s) d.loc.segment
    |> opt "chain" (fun c -> Json.Int c) d.loc.chain
    |> opt "line" (fun l -> Json.Int l) d.loc.line
    |> opt "file" (fun f -> Json.String f) d.loc.file
    |> opt "net_name" (fun n -> Json.String n) d.loc.net_name
    |> opt "net" (fun n -> Json.Int n) d.loc.net
  in
  Json.Obj
    (("rule", Json.String d.rule)
     :: ("severity", Json.String (severity_to_string d.severity))
     :: ("message", Json.String d.message)
     :: ("key", Json.String (key d))
     :: fields)

let of_shift_error ?lines ?file c (e : Fst_tpi.Scan.shift_error) =
  let loc =
    { (at ?lines ?file c e.Fst_tpi.Scan.se_net) with
      chain = Some e.Fst_tpi.Scan.se_chain }
  in
  make ~rule:"E-SCAN-SHIFT" ~severity:Error ~loc
    (Fst_tpi.Scan.shift_error_message c e)
