(** Three-valued logic: the value system used by good-machine and faulty
    machine simulation, scan-mode constant propagation and fault
    classification. [X] is the usual unknown/"either" value of ternary
    (Kleene) logic. *)

type t = Zero | One | X

val equal : t -> t -> bool
val compare : t -> t -> int

(** [of_bool b] is [One] if [b], else [Zero]. *)
val of_bool : bool -> t

val is_binary : t -> bool

(** Kleene conjunction: [Zero] dominates. *)
val band : t -> t -> t

(** Kleene disjunction: [One] dominates. *)
val bor : t -> t -> t

(** Exclusive or; [X] if either operand is [X]. *)
val bxor : t -> t -> t

val bnot : t -> t

(** [refines a b] holds when [a] is at least as defined as [b]: either
    [b = X], or [a = b]. Used to state simulation monotonicity. *)
val refines : t -> t -> bool

(** Compact integer encoding used by the array-based simulators:
    [Zero] = 0, [One] = 1, [X] = 2. *)

val to_int : t -> int
val of_int : int -> t

val pp : t Fmt.t
val to_char : t -> char
val of_char : char -> t
