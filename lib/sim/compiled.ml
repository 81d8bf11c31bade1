(* One-time compilation of a [Circuit.t] into a flat, levelized,
   cache-friendly representation shared by every simulation kernel.

   An interpreted machine dispatches on a per-node variant and chases
   per-gate fanin arrays; on big
   circuits that costs a branchy match plus two pointer loads per gate per
   cycle. The compiled form replaces all of it with contiguous int arrays:

     slot space     a stable permutation of net ids: level-0 nodes (inputs,
                    constants, flip-flops) first in net order, then gates
                    level by level in net order. Gate [k]'s output slot is
                    [n_level0 + k], so a levelized sweep writes slots
                    strictly left to right.
     gate_op        one opcode byte per gate (AND/OR/XOR base + invert bit)
     fanin_off/     the fanin lists of all gates, flattened into one pool
     fanin          of slot ids (CSR layout)
     ff_slot/       the flip-flop next-state map: ff [k] latches the value
     ff_data        of slot [ff_data.(k)] into slot [ff_slot.(k)]
     fanout_off/    the consumer lists of all slots (CSR), for static cone
     fanout         walks

   Net values are stored one byte per slot ([Bytes.t]) using the branch-free
   [V3b] 2-bit codes, so a full value vector of a 10k-net circuit is 10kB —
   it stays in L1/L2 across cycles. Every vector has one spare slot at index
   [n_slots] that the fault simulator uses as a constant cell for redirected
   (branch-faulted) fanin reads. *)

open Fst_logic
open Fst_netlist

type t = {
  circuit : Circuit.t;
  n_slots : int;
  n_level0 : int;
  n_gates : int;
  perm : int array;
  net_of : int array;
  gate_op : int array;
  fanin_off : int array;
  fanin : int array;
  n_ffs : int;
  ff_slot : int array;
  ff_data : int array;
  ff_of_slot : int array;
  fanout_off : int array;
  fanout : int array;
  init : Bytes.t;
  plane_prog : int array;
}

let opcode = function
  | Gate.And -> 0
  | Gate.Nand -> 1
  | Gate.Or -> 2
  | Gate.Nor -> 3
  | Gate.Xor -> 4
  | Gate.Xnor -> 5
  | Gate.Buf -> 6
  | Gate.Not -> 7

let gate_slot cc k = cc.n_level0 + k
let slot_gate cc s = if s >= cc.n_level0 then s - cc.n_level0 else -1

(* ---- plane programs --------------------------------------------------- *)

(* The bit-plane kernel runs a flat int program: per gate, in sweep
   order, [op; dst; n; fanin_1 .. fanin_n] with [op] the base function
   shifted left once (AND 0, OR 2, XOR 4) plus the inversion bit — a BUF
   is a one-input AND, a NOT a one-input NAND — [dst] the output slot and
   the fanins as slot ids. A gate the caller evaluates itself (the fault
   simulator's override-carrying gates) is written as the two words
   [op_override; k] instead. No gate needs more than [3 + n] words, so
   [program_words] bounds any program over a subset of the gates. *)
let op_override = 8

let program_words cc = (3 * cc.n_gates) + cc.fanin_off.(cc.n_gates)

let emit cc prog pos k =
  let o = cc.fanin_off.(k) in
  let n = cc.fanin_off.(k + 1) - o in
  let op = cc.gate_op.(k) in
  prog.(pos) <- (if op >= 6 then op - 6 else op);
  prog.(pos + 1) <- cc.n_level0 + k;
  prog.(pos + 2) <- n;
  Array.blit cc.fanin o prog (pos + 3) n;
  pos + 3 + n

let emit_override prog pos k =
  prog.(pos) <- op_override;
  prog.(pos + 1) <- k;
  pos + 2

let of_circuit (c : Circuit.t) =
  let n = Circuit.num_nets c in
  let nodes = c.Circuit.nodes in
  let is_gate i = match nodes.(i) with Circuit.Gate _ -> true | _ -> false in
  (* Stable net -> slot permutation: level-0 nodes first (net order), then
     gates sorted by (level, net id). *)
  let gates = ref [] in
  for i = n - 1 downto 0 do
    if is_gate i then gates := i :: !gates
  done;
  let gates = Array.of_list !gates in
  Array.sort
    (fun a b ->
      match Int.compare c.Circuit.level.(a) c.Circuit.level.(b) with
      | 0 -> Int.compare a b
      | d -> d)
    gates;
  let n_gates = Array.length gates in
  let n_level0 = n - n_gates in
  let perm = Array.make n (-1) in
  let net_of = Array.make n (-1) in
  let next0 = ref 0 in
  for i = 0 to n - 1 do
    if not (is_gate i) then begin
      perm.(i) <- !next0;
      net_of.(!next0) <- i;
      incr next0
    end
  done;
  Array.iteri
    (fun k i ->
      perm.(i) <- n_level0 + k;
      net_of.(n_level0 + k) <- i)
    gates;
  let gate_op = Array.make n_gates 0 in
  let fanin_off = Array.make (n_gates + 1) 0 in
  let total_fanins = ref 0 in
  Array.iteri
    (fun k i ->
      match nodes.(i) with
      | Circuit.Gate (g, fi) ->
        gate_op.(k) <- opcode g;
        fanin_off.(k) <- !total_fanins;
        total_fanins := !total_fanins + Array.length fi
      | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> assert false)
    gates;
  fanin_off.(n_gates) <- !total_fanins;
  let fanin = Array.make (max 1 !total_fanins) 0 in
  Array.iteri
    (fun k i ->
      match nodes.(i) with
      | Circuit.Gate (_, fi) ->
        let o = fanin_off.(k) in
        Array.iteri (fun p f -> fanin.(o + p) <- perm.(f)) fi
      | Circuit.Input | Circuit.Const _ | Circuit.Dff _ -> assert false)
    gates;
  let dffs = c.Circuit.dffs in
  let n_ffs = Array.length dffs in
  let ff_slot = Array.map (fun ff -> perm.(ff)) dffs in
  let ff_data =
    Array.map
      (fun ff ->
        match nodes.(ff) with
        | Circuit.Dff d -> perm.(d)
        | Circuit.Input | Circuit.Const _ | Circuit.Gate _ -> assert false)
      dffs
  in
  let ff_of_slot = Array.make n (-1) in
  Array.iteri (fun k s -> ff_of_slot.(s) <- k) ff_slot;
  (* Consumer lists in slot space (CSR). *)
  let fanout_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let s = perm.(i) in
    fanout_off.(s + 1) <- Array.length c.Circuit.fanout.(i)
  done;
  for s = 0 to n - 1 do
    fanout_off.(s + 1) <- fanout_off.(s) + fanout_off.(s + 1)
  done;
  let fanout = Array.make (max 1 fanout_off.(n)) 0 in
  for i = 0 to n - 1 do
    let s = perm.(i) in
    let o = ref fanout_off.(s) in
    Array.iter
      (fun consumer ->
        fanout.(!o) <- perm.(consumer);
        incr o)
      c.Circuit.fanout.(i)
  done;
  let init = Bytes.make (n + 1) (Char.chr V3b.x) in
  Array.iteri
    (fun i nd ->
      match nd with
      | Circuit.Const v -> Bytes.set init perm.(i) (Char.chr (V3b.of_v3 v))
      | Circuit.Input | Circuit.Gate _ | Circuit.Dff _ -> ())
    nodes;
  let cc =
    {
      circuit = c;
      n_slots = n;
      n_level0;
      n_gates;
      perm;
      net_of;
      gate_op;
      fanin_off;
      fanin;
      n_ffs;
      ff_slot;
      ff_data;
      ff_of_slot;
      fanout_off;
      fanout;
      init;
      plane_prog = [||];
    }
  in
  (* The whole-netlist plane program, in gate (= levelized) order. *)
  let prog = Array.make (program_words cc) 0 in
  let len = ref 0 in
  for k = 0 to n_gates - 1 do
    len := emit cc prog !len k
  done;
  { cc with plane_prog = prog }

(* ---- stimuli ----------------------------------------------------------- *)

type stimulus = (int * V3.t) list array

(* One packed int per assignment: [(slot lsl 2) lor code]. *)
type cstim = int array array

let compile_stim cc (stim : stimulus) : cstim =
  Array.map
    (fun assigns ->
      Array.of_list
        (List.map
           (fun (net, v) -> (cc.perm.(net) lsl 2) lor V3b.of_v3 v)
           assigns))
    stim

(* ---- scalar kernel ----------------------------------------------------- *)

let make_vec cc = Bytes.copy cc.init
let reset_vec cc v = Bytes.blit cc.init 0 v 0 (Bytes.length cc.init)
let get (v : Bytes.t) s = Char.code (Bytes.unsafe_get v s)
let set (v : Bytes.t) s code = Bytes.unsafe_set v s (Char.unsafe_chr code)

let apply (v : Bytes.t) (assigns : int array) =
  for i = 0 to Array.length assigns - 1 do
    let a = Array.unsafe_get assigns i in
    set v (a lsr 2) (a land 3)
  done

(* The tight opcode-switch sweep over the gate index range [lo, hi).
   [fanin] defaults to the circuit's pool; the fault simulator passes a
   copy with one entry redirected to the spare constant slot to model a
   branch fault. Levelized slot order guarantees every fanin of gate [k]
   is already settled when [k] evaluates. *)
let eval_range cc ?(fanin = cc.fanin) (v : Bytes.t) ~lo ~hi =
  let op = cc.gate_op and off = cc.fanin_off in
  let base = cc.n_level0 in
  for k = lo to hi - 1 do
    let o = Array.unsafe_get off k in
    let o_hi = Array.unsafe_get off (k + 1) in
    let code =
      match Array.unsafe_get op k with
      | 0 | 1 ->
        let acc = ref V3b.and_unit in
        for i = o to o_hi - 1 do
          acc := V3b.band !acc (get v (Array.unsafe_get fanin i))
        done;
        if Array.unsafe_get op k = 0 then !acc else V3b.bnot !acc
      | 2 | 3 ->
        let acc = ref V3b.or_unit in
        for i = o to o_hi - 1 do
          acc := V3b.bor !acc (get v (Array.unsafe_get fanin i))
        done;
        if Array.unsafe_get op k = 2 then !acc else V3b.bnot !acc
      | 4 | 5 ->
        let acc = ref V3b.xor_unit in
        for i = o to o_hi - 1 do
          acc := V3b.bxor !acc (get v (Array.unsafe_get fanin i))
        done;
        if Array.unsafe_get op k = 4 then !acc else V3b.bnot !acc
      | 6 -> get v (Array.unsafe_get fanin o)
      | _ -> V3b.bnot (get v (Array.unsafe_get fanin o))
    in
    set v (base + k) code
  done

let eval cc ?fanin v = eval_range cc ?fanin v ~lo:0 ~hi:cc.n_gates

(* Latch every flip-flop's data value, then publish simultaneously. The
   two passes keep FF-to-FF chains (scan paths) correct. *)
let clock cc (v : Bytes.t) (latch : Bytes.t) =
  let data = cc.ff_data and slot = cc.ff_slot in
  for k = 0 to cc.n_ffs - 1 do
    Bytes.unsafe_set latch k (Bytes.unsafe_get v (Array.unsafe_get data k))
  done;
  for k = 0 to cc.n_ffs - 1 do
    Bytes.unsafe_set v (Array.unsafe_get slot k) (Bytes.unsafe_get latch k)
  done

(* ---- the good-trace recorder ------------------------------------------- *)

(* One fault-free sweep of the whole stimulus, recording the post-eval
   value vector of every cycle. Row [t] is what every fault-simulation
   kernel compares against at cycle [t]; rows are immutable once recorded
   and safe to share read-only across domains. *)
let trace cc (stim : cstim) =
  let v = make_vec cc in
  let latch = Bytes.make (max 1 cc.n_ffs) '\000' in
  let cycles = Array.length stim in
  let rows = Array.make cycles Bytes.empty in
  for t = 0 to cycles - 1 do
    apply v stim.(t);
    eval cc v;
    rows.(t) <- Bytes.copy v;
    clock cc v latch
  done;
  rows

(* ---- static cones in slot space ---------------------------------------- *)

(* One breadth-first walk over the fanout CSR — crossing flip-flop
   boundaries — from [seeds]. A slot is visited when its stamp is not the
   walk's epoch, so the scratch is reused walk after walk without
   clearing; the queue ends up holding the whole cone in visiting order.
   The cone is the union soundness envelope of a packed fault group:
   slots outside it can never diverge from the good trace. *)
type walker = { stamp : int array; mutable epoch : int; queue : int array }

let walker cc =
  { stamp = Array.make (max 1 cc.n_slots) 0; epoch = 0;
    queue = Array.make (max 1 cc.n_slots) 0 }

let walk cc w ~seeds =
  w.epoch <- w.epoch + 1;
  let epoch = w.epoch and stamp = w.stamp and queue = w.queue in
  let tail = ref 0 in
  let visit s =
    if stamp.(s) <> epoch then begin
      stamp.(s) <- epoch;
      queue.(!tail) <- s;
      incr tail
    end
  in
  Array.iter visit seeds;
  let head = ref 0 in
  while !head < !tail do
    let s = queue.(!head) in
    incr head;
    for i = cc.fanout_off.(s) to cc.fanout_off.(s + 1) - 1 do
      visit cc.fanout.(i)
    done
  done;
  !tail

let cone_slots ?walker:w cc ~seeds =
  let w = match w with Some w -> w | None -> walker cc in
  let a = Array.sub w.queue 0 (walk cc w ~seeds) in
  Array.sort Int.compare a;
  a

let cone_size w cc ~seed = walk cc w ~seeds:[| seed |]

(* ---- bit-plane kernel (pattern- and fault-parallel packing) ------------ *)

module Planes = struct
  (* Word-level three-valued planes: per slot, bit [b] of [ones] means
     lane [b] carries 1, of [zeros] lane [b] carries 0; neither bit set
     means X. Lanes are whatever the caller packs — faulty machines in the
     fault-parallel engine, stimulus blocks in the pattern-parallel good
     trace below. *)
  type vec = { full : int; ones : int array; zeros : int array }

  let make cc ~lanes =
    let full = (1 lsl lanes) - 1 in
    let n = cc.n_slots + 1 in
    let ones = Array.make n 0 and zeros = Array.make n 0 in
    for s = 0 to cc.n_slots - 1 do
      match get cc.init s with
      | c when c = V3b.one -> ones.(s) <- full
      | c when c = V3b.zero -> zeros.(s) <- full
      | _ -> ()
    done;
    { full; ones; zeros }

  let set_lane pv s code ~bit =
    let keep = lnot bit in
    pv.ones.(s) <- pv.ones.(s) land keep;
    pv.zeros.(s) <- pv.zeros.(s) land keep;
    if code = V3b.one then pv.ones.(s) <- pv.ones.(s) lor bit
    else if code = V3b.zero then pv.zeros.(s) <- pv.zeros.(s) lor bit

  (* Plane evaluation of gate [k] reading fanins through [read]
     (pool index -> (ones, zeros)): the boxed path the fault simulator
     takes on its rare override-carrying gates. *)
  let eval_gate_via cc ~full ~read k =
    let o = cc.fanin_off.(k) and o_hi = cc.fanin_off.(k + 1) in
    match cc.gate_op.(k) with
    | 0 | 1 ->
      let one = ref full and zero = ref 0 in
      for i = o to o_hi - 1 do
        let po, pz = read i in
        one := !one land po;
        zero := !zero lor pz
      done;
      if cc.gate_op.(k) = 0 then (!one, !zero) else (!zero, !one)
    | 2 | 3 ->
      let one = ref 0 and zero = ref full in
      for i = o to o_hi - 1 do
        let po, pz = read i in
        one := !one lor po;
        zero := !zero land pz
      done;
      if cc.gate_op.(k) = 2 then (!one, !zero) else (!zero, !one)
    | 4 | 5 ->
      let one = ref 0 and zero = ref full in
      for i = o to o_hi - 1 do
        let po, pz = read i in
        let o' = (!one land pz) lor (!zero land po) in
        let z' = (!one land po) lor (!zero land pz) in
        one := o';
        zero := z'
      done;
      if cc.gate_op.(k) = 4 then (!one, !zero) else (!zero, !one)
    | 6 -> read o
    | _ ->
      let po, pz = read o in
      (pz, po)

  (* Runs the first [len] words of a plane program (see [emit]) over the
     slot planes [ones]/[zeros]; [override k] evaluates a gate written
     with [emit_override]. The loop reads nothing but the program and
     the planes. *)
  let run prog ~len ~full ~ones ~zeros ~override =
    let pc = ref 0 in
    while !pc < len do
      let p = !pc in
      let op = Array.unsafe_get prog p in
      if op = op_override then begin
        override (Array.unsafe_get prog (p + 1));
        pc := p + 2
      end
      else begin
        let dst = Array.unsafe_get prog (p + 1) in
        let lo = p + 3 in
        let hi = lo + Array.unsafe_get prog (p + 2) in
        let one = ref 0 and zero = ref 0 in
        (match op lsr 1 with
         | 0 ->
           one := full;
           for i = lo to hi - 1 do
             let f = Array.unsafe_get prog i in
             one := !one land Array.unsafe_get ones f;
             zero := !zero lor Array.unsafe_get zeros f
           done
         | 1 ->
           zero := full;
           for i = lo to hi - 1 do
             let f = Array.unsafe_get prog i in
             one := !one lor Array.unsafe_get ones f;
             zero := !zero land Array.unsafe_get zeros f
           done
         | _ ->
           zero := full;
           for i = lo to hi - 1 do
             let f = Array.unsafe_get prog i in
             let po = Array.unsafe_get ones f
             and pz = Array.unsafe_get zeros f in
             let o' = (!one land pz) lor (!zero land po) in
             zero := (!one land po) lor (!zero land pz);
             one := o'
           done);
        if op land 1 = 0 then begin
          Array.unsafe_set ones dst !one;
          Array.unsafe_set zeros dst !zero
        end
        else begin
          Array.unsafe_set ones dst !zero;
          Array.unsafe_set zeros dst !one
        end;
        pc := hi
      end
    done

  let eval cc pv =
    run cc.plane_prog ~len:(Array.length cc.plane_prog) ~full:pv.full
      ~ones:pv.ones ~zeros:pv.zeros ~override:(fun _ -> assert false)

  let clock cc pv ~l1 ~l0 =
    let data = cc.ff_data and slot = cc.ff_slot in
    for k = 0 to cc.n_ffs - 1 do
      let d = Array.unsafe_get data k in
      Array.unsafe_set l1 k pv.ones.(d);
      Array.unsafe_set l0 k pv.zeros.(d)
    done;
    for k = 0 to cc.n_ffs - 1 do
      let s = Array.unsafe_get slot k in
      pv.ones.(s) <- Array.unsafe_get l1 k;
      pv.zeros.(s) <- Array.unsafe_get l0 k
    done

  (* Pattern-parallel good trace: lane [b] simulates stimulus block [b]
     (up to word width lanes per sweep), and row [t] snapshots, after
     cycle [t]'s evaluation, the planes of the [cols] slots only — the
     columns the caller's readers will look up. One full-netlist plane
     sweep replaces [lanes] scalar sweeps, and a row costs one word pair
     per column instead of one per slot. A lane whose block is shorter
     than the longest one keeps ticking harmlessly; readers mask it with
     [lane_len]. *)
  type packed = {
    lanes : int;
    cycles : int;
    lane_len : int array;
    col : int array;
    rows1 : int array array;
    rows0 : int array array;
  }

  let max_lanes = Sys.int_size - 1

  let trace_packed cc ~cols (stims : stimulus array) =
    let lanes = Array.length stims in
    if lanes = 0 || lanes > max_lanes then
      invalid_arg "Compiled.Planes.trace_packed: bad lane count";
    let lane_len = Array.map Array.length stims in
    let cycles = Array.fold_left max 0 lane_len in
    let col = Array.make (cc.n_slots + 1) (-1) in
    Array.iteri (fun j s -> col.(s) <- j) cols;
    let pv = make cc ~lanes in
    let l1 = Array.make (max 1 cc.n_ffs) 0 in
    let l0 = Array.make (max 1 cc.n_ffs) 0 in
    let rows1 = Array.make cycles [||] and rows0 = Array.make cycles [||] in
    for t = 0 to cycles - 1 do
      Array.iteri
        (fun b stim ->
          if t < Array.length stim then
            List.iter
              (fun (net, v) ->
                set_lane pv cc.perm.(net) (V3b.of_v3 v) ~bit:(1 lsl b))
              stim.(t))
        stims;
      eval cc pv;
      rows1.(t) <- Array.map (fun s -> Array.unsafe_get pv.ones s) cols;
      rows0.(t) <- Array.map (fun s -> Array.unsafe_get pv.zeros s) cols;
      clock cc pv ~l1 ~l0
    done;
    { lanes; cycles; lane_len; col; rows1; rows0 }
end
