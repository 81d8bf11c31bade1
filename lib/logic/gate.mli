(** Gate types of the mapped netlists (the MCNC-style nand/nor library the
    paper maps to, plus the inverting/buffering and xor cells needed by
    inserted test points and generated circuits). *)

type t = And | Nand | Or | Nor | Xor | Xnor | Not | Buf

val equal : t -> t -> bool
val all : t list

(** [arity_ok g n] checks that [n] fanins is legal for gate [g]
    ([Not]/[Buf] take exactly one input, the rest at least two). *)
val arity_ok : t -> int -> bool

(** [controlling g] is the input value that determines the output of [g]
    regardless of the other inputs ([Some Zero] for and/nand, [Some One] for
    or/nor, [None] for xor/xnor/not/buf). *)
val controlling : t -> V3.t option

(** [controlled_output g] is the output produced when a controlling value is
    present at some input. Raises [Invalid_argument] for gates without a
    controlling value. *)
val controlled_output : t -> V3.t

(** [inverting g] is [true] when the gate inverts the parity of a sensitized
    path through it (nand, nor, not, xnor). *)
val inverting : t -> bool

(** [eval g fanins] evaluates [g] over three-valued fanin values. *)
val eval : t -> V3.t array -> V3.t

(** [of_inputs g ~zero ~one ~x ~odd] is [eval g] over fanins among which
    some are 0 ([zero]), some 1 ([one]), some X ([x]), and an odd number
    are 1 ([odd]): all [eval] depends on. A caller that gathers these
    four flags in its own loop evaluates a gate without building the
    fanin array. *)
val of_inputs : t -> zero:bool -> one:bool -> x:bool -> odd:bool -> V3.t

(** [eval_list g fanins] is [eval] over a list. *)
val eval_list : t -> V3.t list -> V3.t

val to_string : t -> string
val of_string : string -> t option
val pp : t Fmt.t
