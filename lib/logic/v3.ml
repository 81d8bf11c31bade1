type t = Zero | One | X

let equal a b =
  match a, b with
  | Zero, Zero | One, One | X, X -> true
  | (Zero | One | X), _ -> false

let rank = function Zero -> 0 | One -> 1 | X -> 2
let compare a b = Int.compare (rank a) (rank b)
let of_bool b = if b then One else Zero

let is_binary = function Zero | One -> true | X -> false

let band a b =
  match a, b with
  | Zero, _ | _, Zero -> Zero
  | One, One -> One
  | (One | X), (One | X) -> X

let bor a b =
  match a, b with
  | One, _ | _, One -> One
  | Zero, Zero -> Zero
  | (Zero | X), (Zero | X) -> X

let bnot = function Zero -> One | One -> Zero | X -> X

let bxor a b =
  match a, b with
  | X, _ | _, X -> X
  | Zero, Zero | One, One -> Zero
  | Zero, One | One, Zero -> One

let refines a b = equal b X || equal a b
let to_int = rank

let of_int = function
  | 0 -> Zero
  | 1 -> One
  | 2 -> X
  | n -> invalid_arg (Printf.sprintf "V3.of_int: %d" n)

let to_char = function Zero -> '0' | One -> '1' | X -> 'X'

let of_char = function
  | '0' -> Zero
  | '1' -> One
  | 'X' | 'x' -> X
  | c -> invalid_arg (Printf.sprintf "V3.of_char: %c" c)

let pp ppf v = Fmt.char ppf (to_char v)
