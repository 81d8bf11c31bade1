(** The versioned JSONL wire protocol of [fst serve].

    One JSON object per line in both directions. Requests carry
    [{"v": 1, "cmd": ...}]; the server answers every request with at
    least one response object carrying a ["kind"] tag, and a waiting
    [submit] additionally streams [event] / [heartbeat] frames between
    the [ack] and the final [result].

    The {!commands} table is the single source of truth for what the
    protocol accepts: {!request_of_json} rejects any [cmd] not listed
    there, and the [fst serve]/[fst submit] [--help] text renders the
    same table — the CLI documentation and the dispatcher cannot
    drift. *)

(** Protocol identifier, ["fst-serve/1"]. The integer {!version} is what
    requests carry as ["v"]. *)
val id : string

val version : int

(** Where the daemon listens: a Unix-domain socket path, or TCP on
    localhost. *)
type addr = Unix_sock of string | Tcp of int

val addr_to_string : addr -> string

(** [addr_of_spec ~socket ~port] resolves the CLI's [--socket]/[--port]
    pair (exactly one must be given). *)
val addr_of_spec :
  socket:string option -> port:int option -> (addr, string) result

(** {2 Frame reads}

    Both ends read their JSONL frames through a bounded {!reader}, so a
    peer that never sends a newline cannot grow the reader's heap. *)

(** The per-frame cap in bytes (16 MiB, far above the largest suite
    netlist's submit frame). *)
val max_frame_bytes : int

type reader

(** [reader ic] reads frames from [ic]. *)
val reader : in_channel -> reader

(** [read_frame ~cap r] is the next newline-terminated frame without its
    newline ([`Frame]; a final unterminated line counts), [`Too_long]
    when it exceeded [cap] bytes (the rest of that line is consumed and
    dropped, never buffered), or [`Eof]. *)
val read_frame : cap:int -> reader -> [ `Frame of string | `Too_long | `Eof ]

(** What a submitted job runs: the full flow, the static analyzer, or
    the netlist/scan-DFT linter. Each caches its own artifact kind. *)
type job_kind = Flow | Lint | Sca

val job_kind_to_string : job_kind -> string
val job_kind_of_string : string -> job_kind option

type submit = {
  kind : job_kind;
  netlist : string;  (** netlist text, ISCAS'89-like syntax *)
  name : string;  (** circuit name for reports *)
  chains : int;  (** scan chains to insert, >= 1 *)
  config : Fst_obs.Json.t;
      (** semantic flow configuration ({!Fst_core.Config.of_json});
          [Obj []] means all defaults *)
  wait : bool;  (** stream events and the final result on this
                    connection ([true]), or return just the [ack] and
                    poll with [status]/[result] ([false]) *)
  tenant : string;  (** fair-share scheduling bucket *)
}

type request =
  | Submit of submit
  | Status of string  (** job id *)
  | Cancel of string
  | Result of string  (** block until the job finishes, then reply *)
  | Stats
  | Ping
  | Shutdown

(** [(cmd, doc)] rows, one per accepted request. *)
val commands : (string * string) list

val request_to_json : request -> Fst_obs.Json.t

(** Validates ["v"] and ["cmd"] against {!version} / {!commands}. *)
val request_of_json : Fst_obs.Json.t -> (request, string) result

(** Job lifecycle as reported by [status] responses. *)
type state = Queued | Running | Done | Failed | Cancelled

val state_to_string : state -> string

(** {2 Response builders} — the server's side of the wire. Every frame
    carries a ["kind"] tag; clients dispatch on it. *)

val ack : job:string -> queued:int -> Fst_obs.Json.t

val event_frame : job:string -> line:string -> string
(** [event_frame ~job ~line] wraps an already-serialized event line
    (from {!Fst_obs.Events.to_callback}) into an [event] frame {e as a
    string}, avoiding a parse/re-print of the inner object. *)

val heartbeat : job:string -> state:state -> elapsed_s:float -> Fst_obs.Json.t

val result :
  job:string ->
  job_kind:job_kind ->
  cached:bool ->
  elapsed_s:float ->
  payload:string ->
  string list
(** [result ~job ~job_kind ~cached ~elapsed_s ~payload] is the [result]
    frame as the pieces written back to back: its head, [payload] (the
    artifact's compact JSON text, the very string passed in, not a
    copy), and the closing brace. *)

val status :
  job:string -> state:state -> position:int option -> Fst_obs.Json.t

val error : ?job:string -> string -> Fst_obs.Json.t
val pong : unit -> Fst_obs.Json.t
val bye : unit -> Fst_obs.Json.t
