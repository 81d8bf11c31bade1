(** Minimal blocking client for the [fst serve] protocol — what
    [fst submit] and the service benchmark are built on. Replies are read
    through {!Protocol.read_frame}: a reply frame longer than
    {!Protocol.max_frame_bytes} is discarded as it arrives and reported
    as an [Error]. *)

type t

(** [connect addr] opens one protocol connection. @raise Unix.Unix_error
    when nothing listens there. *)
val connect : Protocol.addr -> t

val close : t -> unit

(** [request t req] sends one request and returns the next response
    frame (skipping nothing) — for [status]/[cancel]/[stats]/[ping]/
    [shutdown], whose answer is a single frame. *)
val request : t -> Protocol.request -> (Fst_obs.Json.t, string) result

(** What a waiting submit produced. [events] are the streamed inner
    event lines in arrival order (serialized JSON, one per event);
    [heartbeats] counts heartbeat frames. *)
type outcome = {
  job : string;
  cached : bool;
  elapsed_s : float;
  payload : Fst_obs.Json.t;
  events : string list;
  heartbeats : int;
}

(** [submit t s] drives a full submit exchange: sends the request, reads
    the [ack], then (when [s.wait]) consumes [event]/[heartbeat] frames
    — forwarding each raw frame line to [on_frame] as it arrives — until
    the final [result] or [error]. With [s.wait = false] it returns
    after the [ack] with an empty payload and the job id. *)
val submit :
  ?on_frame:(string -> unit) ->
  t ->
  Protocol.submit ->
  (outcome, string) result
