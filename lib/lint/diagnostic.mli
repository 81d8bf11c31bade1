(** Severity-ranked, source-located lint diagnostics.

    Every finding carries a stable rule id ([E-NET-*], [E-SCAN-*],
    [W-TEST-*], ...), a location (net, source line, chain/segment when the
    finding is about a scan path) and a one-line message. Ordering is total
    and deterministic, so a lint run renders identically across runs and
    machines — a requirement for CI gating and baseline files. *)

type severity = Error | Warning | Info

val severity_to_string : severity -> string

type location = {
  file : string option;  (** source file, when the netlist came from one *)
  line : int option;  (** 1-based definition line of [net] *)
  net : int option;  (** net id in the analyzed circuit *)
  net_name : string option;
  chain : int option;  (** scan-chain index *)
  segment : int option;  (** segment index within [chain] *)
}

val no_loc : location

(** [at c net] locates a diagnostic on a net of circuit [c], picking up the
    net name and, when a line table is given, the source line. *)
val at :
  ?lines:int array -> ?file:string -> Fst_netlist.Circuit.t -> int -> location

type t = {
  rule : string;  (** stable id, e.g. ["E-SCAN-SENS"] *)
  severity : severity;
  loc : location;
  message : string;
}

val make :
  rule:string -> severity:severity -> ?loc:location -> string -> t

(** Total deterministic order: errors first, then warnings, then infos,
    then by rule id, chain, segment, net, line, message. *)
val compare : t -> t -> int

(** [key d] is the stable waiver/baseline key:
    [RULE@net-name[@chain.segment]]. It omits line numbers so a waiver
    survives unrelated edits above the definition. *)
val key : t -> string

(** [to_string d] renders one line, compiler-style:
    [file:line: error RULE: message] (location pieces omitted when
    absent). *)
val to_string : t -> string

val to_json : t -> Fst_obs.Json.t

(** [of_shift_error c e] renders a dynamic {!Fst_tpi.Scan.verify_shift}
    failure as an [E-SCAN-SHIFT] diagnostic, so the CLI reports static and
    dynamic scan-chain findings uniformly. *)
val of_shift_error :
  ?lines:int array -> ?file:string ->
  Fst_netlist.Circuit.t -> Fst_tpi.Scan.shift_error -> t
