module Json = Fst_obs.Json

type t = { fd : Unix.file_descr; r : Protocol.reader; oc : out_channel }

let connect addr =
  let domain, sockaddr =
    match addr with
    | Protocol.Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Protocol.Tcp port ->
      (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Unix.connect fd sockaddr;
  {
    fd;
    r = Protocol.reader (Unix.in_channel_of_descr fd);
    oc = Unix.out_channel_of_descr fd;
  }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t req =
  output_string t.oc (Json.to_string (Protocol.request_to_json req));
  output_char t.oc '\n';
  flush t.oc

let recv_line t =
  match Protocol.read_frame ~cap:Protocol.max_frame_bytes t.r with
  | `Frame line -> Ok line
  | `Too_long ->
    Error
      (Printf.sprintf "reply exceeds the %d-byte frame cap"
         Protocol.max_frame_bytes)
  | `Eof | (exception (Sys_error _ | Unix.Unix_error _)) ->
    Error "connection closed by server"

let recv t =
  match recv_line t with
  | Error _ as e -> e
  | Ok line -> (
    match Json.of_string line with
    | j -> Ok j
    | exception Json.Parse_error e ->
      Error (Printf.sprintf "bad frame from server (%s): %s" e line))

let request t req =
  send t req;
  recv t

let frame_kind j =
  match Json.member "kind" j with Some (Json.String k) -> k | _ -> ""

let str j k = match Json.member k j with Some (Json.String s) -> s | _ -> ""

let num j k =
  match Json.member k j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> 0.0

type outcome = {
  job : string;
  cached : bool;
  elapsed_s : float;
  payload : Json.t;
  events : string list;
  heartbeats : int;
}

let submit ?(on_frame = fun _ -> ()) t (s : Protocol.submit) =
  let ( let* ) = Result.bind in
  send t (Protocol.Submit s);
  let* ack = recv t in
  match frame_kind ack with
  | "error" -> Error (str ack "message")
  | "ack" ->
    let job = str ack "job" in
    if not s.Protocol.wait then
      Ok
        { job; cached = false; elapsed_s = 0.0; payload = Json.Obj [];
          events = []; heartbeats = 0 }
    else
      let rec drain events heartbeats =
        let* line = recv_line t in
        on_frame line;
        let* j =
          match Json.of_string line with
          | j -> Ok j
          | exception Json.Parse_error e ->
            Error (Printf.sprintf "bad frame from server (%s): %s" e line)
        in
        match frame_kind j with
        | "event" ->
          let ev =
            match Json.member "event" j with
            | Some inner -> Json.to_string inner
            | None -> line
          in
          drain (ev :: events) heartbeats
        | "heartbeat" -> drain events (heartbeats + 1)
        | "result" ->
          Ok
            {
              job = str j "job";
              cached =
                (match Json.member "cached" j with
                 | Some (Json.Bool b) -> b
                 | _ -> false);
              elapsed_s = num j "elapsed_s";
              payload =
                (match Json.member "payload" j with
                 | Some p -> p
                 | None -> Json.Obj []);
              events = List.rev events;
              heartbeats;
            }
        | "error" -> Error (str j "message")
        | other ->
          Error (Printf.sprintf "unexpected %S frame during submit" other)
      in
      drain [] 0
  | other -> Error (Printf.sprintf "expected ack, got %S frame" other)
