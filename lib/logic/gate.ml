type t = And | Nand | Or | Nor | Xor | Xnor | Not | Buf

let equal (a : t) (b : t) = a = b
let all = [ And; Nand; Or; Nor; Xor; Xnor; Not; Buf ]

let arity_ok g n =
  match g with
  | Not | Buf -> n = 1
  | And | Nand | Or | Nor | Xor | Xnor -> n >= 2

let controlling = function
  | And | Nand -> Some V3.Zero
  | Or | Nor -> Some V3.One
  | Xor | Xnor | Not | Buf -> None

let controlled_output = function
  | And -> V3.Zero
  | Nand -> V3.One
  | Or -> V3.One
  | Nor -> V3.Zero
  | (Xor | Xnor | Not | Buf) as g ->
    invalid_arg
      (Printf.sprintf "Gate.controlled_output: %s has no controlling value"
         (match g with
          | Xor -> "xor"
          | Xnor -> "xnor"
          | Not -> "not"
          | Buf -> "buf"
          | And | Nand | Or | Nor -> assert false))

let inverting = function
  | Nand | Nor | Not | Xnor -> true
  | And | Or | Buf | Xor -> false

let fold_fanins base combine fanins =
  let acc = ref base in
  for i = 0 to Array.length fanins - 1 do
    acc := combine !acc fanins.(i)
  done;
  !acc

let eval g fanins =
  match g with
  | And -> fold_fanins V3.One V3.band fanins
  | Nand -> V3.bnot (fold_fanins V3.One V3.band fanins)
  | Or -> fold_fanins V3.Zero V3.bor fanins
  | Nor -> V3.bnot (fold_fanins V3.Zero V3.bor fanins)
  | Xor -> fold_fanins V3.Zero V3.bxor fanins
  | Xnor -> V3.bnot (fold_fanins V3.Zero V3.bxor fanins)
  | Not -> V3.bnot fanins.(0)
  | Buf -> fanins.(0)

let of_inputs g ~zero ~one ~x ~odd =
  let v =
    match g with
    | And | Nand -> if zero then V3.Zero else if x then V3.X else V3.One
    | Or | Nor -> if one then V3.One else if x then V3.X else V3.Zero
    | Xor | Xnor | Not | Buf -> if x then V3.X else if odd then V3.One else V3.Zero
  in
  if inverting g then V3.bnot v else v

let eval_list g fanins = eval g (Array.of_list fanins)

let to_string = function
  | And -> "AND"
  | Nand -> "NAND"
  | Or -> "OR"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"
  | Not -> "NOT"
  | Buf -> "BUF"

let of_string s =
  match String.uppercase_ascii s with
  | "AND" -> Some And
  | "NAND" -> Some Nand
  | "OR" -> Some Or
  | "NOR" -> Some Nor
  | "XOR" -> Some Xor
  | "XNOR" -> Some Xnor
  | "NOT" | "INV" -> Some Not
  | "BUF" | "BUFF" -> Some Buf
  | _ -> None

let pp ppf g = Fmt.string ppf (to_string g)
