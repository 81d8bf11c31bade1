(* Seeded net relabelling: the workload seed renames every net, keeping
   the structure and every net id.

   Flow cost is chaotic in circuit structure (see README.md), so a seed
   that regenerated the circuits would make the spread between seeds
   measure the inputs, not the code. Renaming changes the netlist text,
   its content hash and every fault name a report prints, while the work
   the flow does stays the same — which is also what lets every seed be
   checked against one committed reference. *)

open Fst_netlist

type t = {
  circuit : Circuit.t;
  original : string array;  (** [original.(k)] is the old name of ["w<k>"] *)
}

let prefix = 'w'

(* Fisher-Yates with the generator's own RNG, so a seed means the same
   order on every platform. Every seeded order in the harness uses it. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Fst_gen.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let apply ~seed (c : Circuit.t) =
  let n = Circuit.num_nets c in
  let perm = Array.init n Fun.id in
  shuffle (Fst_gen.Rng.create (Int64.of_int ((seed * 7919) + n))) perm;
  let original = Array.make n "" in
  Array.iteri (fun i k -> original.(k) <- Circuit.net_name c i) perm;
  let circuit =
    Circuit.make ~name:c.Circuit.name ~nodes:c.Circuit.nodes
      ~net_names:(Array.map (fun k -> Printf.sprintf "%c%d" prefix k) perm)
      ~outputs:c.Circuit.outputs
  in
  { circuit; original }

(* [restore t s] maps every relabelled name in [s] back to the original
   one. A relabelled name is [prefix] followed by digits, at the start of
   [s] or after a character that cannot be part of a name ("tp3_w12",
   the name of a test point inserted on net "w12", restores too). No
   generated or inserted name contains [prefix]. *)
let restore t s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let is_digit c = c >= '0' && c <= '9' in
  let is_alnum c =
    is_digit c || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
  in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    let j = ref (!i + 1) in
    while !j < n && is_digit s.[!j] do
      incr j
    done;
    if
      c = prefix && !j > !i + 1
      && (!i = 0 || not (is_alnum s.[!i - 1]))
      && (!j = n || not (is_alnum s.[!j]))
    then begin
      let k = int_of_string (String.sub s (!i + 1) (!j - !i - 1)) in
      if k >= Array.length t.original then
        invalid_arg ("Relabel.restore: unknown net " ^ String.sub s !i (!j - !i));
      Buffer.add_string b t.original.(k);
      i := !j
    end
    else begin
      Buffer.add_char b c;
      incr i
    end
  done;
  Buffer.contents b
