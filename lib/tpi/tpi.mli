(** Test point insertion: building functional scan chains.

    Following Lin et al. (DAC'97), a scan path between two flip-flops is
    established over an existing combinational path whose side inputs are
    forced to non-controlling values during scan mode — by assigning free
    primary inputs where a shallow justification finds one, and by inserting
    control test points (an [AND] with inverted scan-enable to force 0, an
    [OR] with scan-enable to force 1) otherwise. Flip-flop pairs with no
    usable combinational path fall back to an inserted scan multiplexer.

    Chains are formed greedily: within each partition the next flip-flop is
    the one reachable over the shortest sensitizable path, which maximizes
    functional-path reuse while keeping the ordering otherwise arbitrary
    (the flexibility the paper leaves to the designer). *)

open Fst_netlist

(** Chain ordering policy. The paper leaves the ordering "arbitrary" except
    where functional paths are established and notes that different
    orderings move fault locations around; these are the choices a designer
    gets. *)
type ordering =
  | Greedy_functional
      (** next flip-flop = cheapest sensitizable path (maximizes
          functional-path reuse; the default) *)
  | Natural  (** flip-flop declaration order *)
  | Shuffled of int64  (** a seeded random permutation *)

type options = {
  chains : int;
      (** number of scan chains to build; below 1 acts as 1, above the
          flip-flop count as one chain per flip-flop *)
  justify_depth : int;
      (** recursion budget for justifying a side input from primary inputs
          before falling back to a test point *)
  max_path_cost : int;
      (** sensitization-cost budget per segment (1 per gate crossed plus 1
          per side pin to force); dearer paths fall back to a scan
          multiplexer *)
  ordering : ordering;
}

val default_options : options

(** [insert ?options c] returns the scanned circuit (scan-enable and
    scan-in inputs, test points, multiplexers, scan-out outputs added; all
    original net ids preserved) together with its {!Scan.config}. *)
val insert : ?options:options -> Circuit.t -> Circuit.t * Scan.config

(** Why {!insert_checked} produced no usable scan design. *)
type insert_error =
  | No_flip_flops
  | Shift_broken of Circuit.t * Scan.config * Scan.shift_error list
      (** the scanned circuit and its config, and every chain position
          that {!Scan.verify_shift} saw fail to load *)

(** [insert_checked ~chains c] is {!insert} with [chains] chains and the
    default options, followed by {!Scan.verify_shift}: the one scan
    insertion every front end (CLI, lint, service) goes through. *)
val insert_checked :
  chains:int -> Circuit.t -> (Circuit.t * Scan.config, insert_error) result

(** One line; shift failures are joined with ["; "]. *)
val insert_error_message : insert_error -> string

(** Area accounting relative to the pre-scan circuit. *)
type overhead = {
  extra_gates : int;  (** gates added (test points, muxes, inverter) *)
  dedicated_routes : int;
      (** segments needing new flip-flop to flip-flop wiring (mux
          segments); functional segments reuse mission routing *)
  functional_segments : int;
}

val overhead : Circuit.t -> Scan.config -> before:Circuit.t -> overhead

(** [full_scan c] applies conventional MUXed-scan to every flip-flop (the
    baseline of Figure 1a): every segment is a multiplexer. *)
val full_scan : ?chains:int -> Circuit.t -> Circuit.t * Scan.config
