(** Deterministic pseudo-random numbers (splitmix64).

    Self-contained so that generated benchmark circuits are bit-identical
    across OCaml versions and platforms. *)

type t

val create : int64 -> t

(** [state t] is the generator's cursor; [create (state t)] resumes the
    stream exactly where [t] left it (used by flow checkpointing). *)
val state : t -> int64

(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)
val int : t -> int -> int

(** [bool t] is a fair coin. *)
val bool : t -> bool

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [pick t arr] is a uniform element of [arr]. *)
val pick : t -> 'a array -> 'a

(** [weighted t choices] picks among [(weight, value)] pairs with
    probability proportional to weight. Weights must be positive. *)
val weighted : t -> (int * 'a) list -> 'a
