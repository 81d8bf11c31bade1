(** Helpers shared by the [fst] subcommands: circuit loading, scan
    insertion with shift verification, and the flag specs that several
    commands share (so [fst flow] and [fst submit] spell their common
    options identically). *)

val read_circuit : string -> (Fst_netlist.Circuit.t, string) result

(** [load ~name ~scale ~file] — a netlist file wins over a suite name. *)
val load :
  name:string option ->
  scale:float ->
  file:string option ->
  (Fst_netlist.Circuit.t, string) result

(** {!Fst_tpi.Tpi.insert_checked}; shift failures are rendered to stderr
    through the lint diagnostic machinery. The error message starts with
    [file] (default: the circuit's name). *)
val insert_chains :
  ?file:string ->
  Fst_netlist.Circuit.t ->
  int ->
  (Fst_netlist.Circuit.t * Fst_tpi.Scan.config, string) result

val or_die : ('a, string) result -> 'a

val print_resume :
  [ `Loaded of Fst_core.Checkpoint.source | `Failed of Fst_core.Checkpoint.error ] ->
  unit

(** {2 Shared flag specs} *)

val scale_arg : Spec.arg
val name_arg : Spec.arg
val chains_arg : Spec.arg

(** The [--chains] value (default 1); below 1 is a usage error. *)
val chains : Spec.parsed -> int
val out_arg : Spec.arg
val jobs_arg : Spec.arg
val file_pos : Spec.pos
val file_pos_required : Spec.pos
