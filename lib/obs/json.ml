type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
      else Buffer.add_string buf "null"
  | String s -> escape buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          emit buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  emit buf t;
  Buffer.contents buf

let to_channel oc t = output_string oc (to_string t)

exception Parse_error of string

(* A small recursive-descent parser over the string, tracking position.
   It reads by index; a string with no escape is one substring, and the
   escape-free runs of the others are copied whole. *)
type state = { s : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let at st c = st.pos < String.length st.s && st.s.[st.pos] = c
let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    st.pos < String.length st.s
    && match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c =
  if at st c then advance st else fail st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then (
    st.pos <- st.pos + n;
    value)
  else fail st (Printf.sprintf "expected %s" word)

let utf8_of_code buf code =
  (* Encode a Unicode scalar value as UTF-8 bytes. *)
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then (
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
  else (
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))

(* The end of the escape-free run starting at [i]. *)
let rec plain s i =
  if i < String.length s && s.[i] <> '"' && s.[i] <> '\\' then plain s (i + 1)
  else i

let parse_string st =
  expect st '"';
  let s = st.s in
  let stop = plain s st.pos in
  if stop < String.length s && s.[stop] = '"' then begin
    let v = String.sub s st.pos (stop - st.pos) in
    st.pos <- stop + 1;
    v
  end
  else begin
    let buf = Buffer.create (stop - st.pos + 16) in
    let rec go () =
      let stop = plain s st.pos in
      Buffer.add_substring buf s st.pos (stop - st.pos);
      st.pos <- stop;
      if stop = String.length s then fail st "unterminated string"
      else if s.[stop] = '"' then begin
        advance st;
        Buffer.contents buf
      end
      else begin
        (* a backslash *)
        advance st;
        if st.pos = String.length s then fail st "bad escape";
        let c = s.[st.pos] in
        advance st;
        (match c with
         | '"' | '\\' | '/' -> Buffer.add_char buf c
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
           if st.pos + 4 > String.length s then fail st "truncated \\u";
           let code =
             try int_of_string ("0x" ^ String.sub s st.pos 4)
             with _ -> fail st "bad \\u escape"
           in
           st.pos <- st.pos + 4;
           utf8_of_code buf code
         | _ ->
           st.pos <- st.pos - 1;
           fail st "bad escape");
        go ()
      end
    in
    go ()
  end

let parse_number st =
  let start = st.pos in
  while
    st.pos < String.length st.s
    &&
    match st.s.[st.pos] with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  do
    advance st
  done;
  let text = String.sub st.s start (st.pos - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail st "bad number")

let rec parse_value st =
  skip_ws st;
  if st.pos = String.length st.s then fail st "unexpected end of input";
  match st.s.[st.pos] with
  | 'n' -> literal st "null" Null
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | '"' -> String (parse_string st)
  | '[' ->
      advance st;
      skip_ws st;
      if at st ']' then (
        advance st;
        List [])
      else
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          if at st ',' then (
            advance st;
            items (v :: acc))
          else if at st ']' then (
            advance st;
            List.rev (v :: acc))
          else fail st "expected ',' or ']'"
        in
        List (items [])
  | '{' ->
      advance st;
      skip_ws st;
      if at st '}' then (
        advance st;
        Obj [])
      else
        let rec pairs acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          if at st ',' then (
            advance st;
            pairs ((k, v) :: acc))
          else if at st '}' then (
            advance st;
            List.rev ((k, v) :: acc))
          else fail st "expected ',' or '}'"
        in
        Obj (pairs [])
  | '-' | '0' .. '9' -> parse_number st
  | c -> fail st (Printf.sprintf "unexpected '%c'" c)

let of_string s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None
