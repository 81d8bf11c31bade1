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
     plane_prog     the gates again, as one flat program for the bit-plane
                    kernels

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
  plane_at : int array;
  level_gate : int array;
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

let slot_gate cc s = if s >= cc.n_level0 then s - cc.n_level0 else -1

(* ---- the plane program ------------------------------------------------ *)

(* The bit-plane kernels read the gates as one flat program: per gate, in
   gate order, [op; n; 2 f_1 .. 2 f_n] with [op] the opcode and [f_i]
   the fanin slots, doubled to index interleaved planes. A sweep reads it
   front to back. *)
let plane_program ~gate_op ~fanin_off ~fanin n_gates =
  let plane_at = Array.make (n_gates + 1) 0 in
  for k = 0 to n_gates - 1 do
    plane_at.(k + 1) <- plane_at.(k) + 2 + fanin_off.(k + 1) - fanin_off.(k)
  done;
  let prog = Array.make (max 1 plane_at.(n_gates)) 0 in
  for k = 0 to n_gates - 1 do
    let p = plane_at.(k) and o = fanin_off.(k) in
    let n = fanin_off.(k + 1) - o in
    prog.(p) <- gate_op.(k);
    prog.(p + 1) <- n;
    for i = 0 to n - 1 do
      prog.(p + 2 + i) <- 2 * fanin.(o + i)
    done
  done;
  (prog, plane_at)

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
  let plane_prog, plane_at =
    plane_program ~gate_op ~fanin_off ~fanin n_gates
  in
  (* Gate [k] is at level [c.level] of its net, and gates are sorted by
     level: the gates of level [l >= 1] are [level_gate.(l) ..
     level_gate.(l + 1) - 1]. *)
  let top = if n_gates = 0 then 0 else c.Circuit.level.(gates.(n_gates - 1)) in
  let level_gate = Array.make (top + 2) n_gates in
  for k = n_gates - 1 downto 0 do
    level_gate.(c.Circuit.level.(gates.(k))) <- k
  done;
  for l = top downto 1 do
    level_gate.(l) <- min level_gate.(l) level_gate.(l + 1)
  done;
  let init = Bytes.make (n + 1) (Char.chr V3b.x) in
  Array.iteri
    (fun i nd ->
      match nd with
      | Circuit.Const v -> Bytes.set init perm.(i) (Char.chr (V3b.of_v3 v))
      | Circuit.Input | Circuit.Gate _ | Circuit.Dff _ -> ())
    nodes;
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
      plane_prog;
      plane_at;
      level_gate;
  }

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
   Slots outside the cone can never diverge from the good trace; the
   fault simulator walks each fault's cone to skip a fault whose cone
   reaches no observed slot. *)
type walker = { stamp : int array; mutable epoch : int; queue : int array }

let walker cc =
  { stamp = Array.make (max 1 cc.n_slots) 0; epoch = 0;
    queue = Array.make (max 1 cc.n_slots) 0 }

let no_targets = Bytes.empty

(* The walk stops early once it visits a slot whose byte in [targets] is
   nonzero, and then returns -1; otherwise it returns the cone size. *)
let walk cc w ~seeds ~targets =
  w.epoch <- w.epoch + 1;
  let epoch = w.epoch and stamp = w.stamp and queue = w.queue in
  let n_targets = Bytes.length targets in
  let tail = ref 0 and found = ref false in
  let visit s =
    if stamp.(s) <> epoch then begin
      stamp.(s) <- epoch;
      if s < n_targets && Bytes.get targets s <> '\000' then found := true;
      queue.(!tail) <- s;
      incr tail
    end
  in
  Array.iter visit seeds;
  let head = ref 0 in
  while (not !found) && !head < !tail do
    let s = queue.(!head) in
    incr head;
    for i = cc.fanout_off.(s) to cc.fanout_off.(s + 1) - 1 do
      visit cc.fanout.(i)
    done
  done;
  if !found then -1 else !tail

let cone_slots cc ~seeds =
  let w = walker cc in
  let a = Array.sub w.queue 0 (walk cc w ~seeds ~targets:no_targets) in
  Array.sort Int.compare a;
  a

let reaches w cc ~seeds targets = walk cc w ~seeds ~targets < 0

(* ---- bit-plane kernel (pattern- and fault-parallel packing) ------------ *)

module Planes = struct
  (* Word-level three-valued planes, interleaved: for slot [s], bit [b] of
     word [2s] (the ones plane) means lane [b] carries 1, of word [2s + 1]
     (the zeros plane) lane [b] carries 0; neither bit set means X. Lanes
     are whatever the caller packs — faulty machines in the fault
     simulator, stimulus blocks in the pattern-parallel good trace below.
     [full] is the mask of the lanes in use. *)

  (* Writes the planes [dst], [dst + 1] of the gate whose instruction is
     at [p] in [prog], and returns the next instruction's offset. An OR is
     an AND of the swapped planes, swapped back (a one-input gate is
     either), so AND, OR and their inversions share one branch-free
     loop; [sw] swaps the planes when it is all ones. *)
  let[@inline] eval_gate prog ~full planes p dst =
    let op = Array.unsafe_get prog p in
    let n = Array.unsafe_get prog (p + 1) in
    let one = ref 0 and zero = ref 0 in
    if op = 4 || op = 5 then begin
      zero := full;
      for i = p + 2 to p + 1 + n do
        let f = Array.unsafe_get prog i in
        let p1 = Array.unsafe_get planes f
        and p0 = Array.unsafe_get planes (f + 1) in
        let o' = (!one land p0) lor (!zero land p1) in
        zero := (!one land p1) lor (!zero land p0);
        one := o'
      done
    end
    else begin
      let sw = - ((op lsr 1) land 1) in
      if n = 2 then begin
        let a = Array.unsafe_get prog (p + 2)
        and b = Array.unsafe_get prog (p + 3) in
        let a1 = Array.unsafe_get planes a
        and a0 = Array.unsafe_get planes (a + 1)
        and b1 = Array.unsafe_get planes b
        and b0 = Array.unsafe_get planes (b + 1) in
        let ta = (a1 lxor a0) land sw and tb = (b1 lxor b0) land sw in
        one := (a1 lxor ta) land (b1 lxor tb);
        zero := (a0 lxor ta) lor (b0 lxor tb)
      end
      else begin
        one := full;
        for i = p + 2 to p + 1 + n do
          let f = Array.unsafe_get prog i in
          let p1 = Array.unsafe_get planes f
          and p0 = Array.unsafe_get planes (f + 1) in
          let t = (p1 lxor p0) land sw in
          one := !one land (p1 lxor t);
          zero := !zero lor (p0 lxor t)
        done
      end;
      let t = (!one lxor !zero) land sw in
      one := !one lxor t;
      zero := !zero lxor t
    end;
    let t = (!one lxor !zero) land - (op land 1) in
    Array.unsafe_set planes dst (!one lxor t);
    Array.unsafe_set planes (dst + 1) (!zero lxor t);
    p + 2 + n

  let eval_range cc ~full planes ~lo ~hi =
    if lo < hi then begin
      let prog = cc.plane_prog in
      let p = ref cc.plane_at.(lo - cc.n_level0) in
      for s = lo to hi - 1 do
        p := eval_gate prog ~full planes !p (2 * s)
      done
    end

  let eval_list cc ~full planes gates ~n =
    let prog = cc.plane_prog and at = cc.plane_at and n0 = cc.n_level0 in
    for i = 0 to n - 1 do
      let s = Array.unsafe_get gates i in
      ignore (eval_gate prog ~full planes (Array.unsafe_get at (s - n0)) (2 * s))
    done

  (* The planes of slots [0 .. upto-1] set to the scalar values of [row]
     in every lane of [full]. A loop over the bytes, not a lookup: a code
     is one or zero in every lane, or in none. *)
  let broadcast row ~full planes ~upto =
    let one = Char.chr V3b.one and zero = Char.chr V3b.zero in
    for s = 0 to upto - 1 do
      let c = Bytes.unsafe_get row s in
      Array.unsafe_set planes (2 * s) (full land - Bool.to_int (c = one));
      Array.unsafe_set planes ((2 * s) + 1) (full land - Bool.to_int (c = zero))
    done

  (* Pattern-parallel good trace: lane [j + i * blocks] simulates block
     [j], for [i < copies] (up to word width lanes per sweep), and each
     cycle applies a block's assignments once, under the mask of its
     lanes. One full-netlist plane sweep replaces [blocks] scalar sweeps,
     whatever the number of copies. The trace is recorded in slices of at
     most [slice_cycles] cycles: row [t - first] of the slice buffers
     holds the planes of every slot after cycle [t]'s evaluation, and
     [next_slice] resumes the paused good machine — the planes of its
     level-0 slots — to overwrite them with the following cycles. A cycle
     is evaluated in its row. A lane whose block is shorter than the
     longest one keeps ticking harmlessly; readers mask it with
     [lane_len]. *)
  type machine = { state : int array; stims : cstim array; masks : int array }

  type packed = {
    blocks : int;
    lanes : int;
    cycles : int;
    lane_len : int array;
    rows : int array array;
    mutable first : int;
    mutable len : int;
    good : machine;
  }

  let max_lanes = Sys.int_size - 1

  (* A slice buffer costs 16 bytes per slot per cycle: at most 32 cycles,
     fewer where that would pass 256 MB. *)
  let slice_cycles ~n_slots = min 32 (max 1 (256_000_000 / (16 * (n_slots + 1))))

  let trace_packed cc (stims : cstim array) ~copies =
    let blocks = Array.length stims in
    let lanes = blocks * copies in
    if blocks = 0 || copies < 1 || lanes > max_lanes then
      invalid_arg "Compiled.Planes.trace_packed: bad lane count";
    let lane_len = Array.init lanes (fun l -> Array.length stims.(l mod blocks)) in
    let cycles = Array.fold_left max 0 lane_len in
    let width = 2 * (cc.n_slots + 1) in
    let state = Array.make (2 * cc.n_level0) 0 in
    broadcast cc.init ~full:((1 lsl lanes) - 1) state ~upto:cc.n_level0;
    let masks =
      Array.init blocks (fun j ->
          let m = ref 0 in
          for i = 0 to copies - 1 do
            m := !m lor (1 lsl (j + (i * blocks)))
          done;
          !m)
    in
    {
      blocks;
      lanes;
      cycles;
      lane_len;
      rows =
        Array.init
          (min (slice_cycles ~n_slots:cc.n_slots) cycles)
          (fun _ -> Array.make width 0);
      first = 0;
      len = 0;
      good = { state; stims; masks };
    }

  let next_slice cc p =
    let first = p.first + p.len in
    let len = min (Array.length p.rows) (p.cycles - first) in
    let { state; stims; masks } = p.good in
    let full = (1 lsl p.lanes) - 1 in
    for j = 0 to len - 1 do
      let t = first + j in
      (* Only level-0 slots hold a value from one cycle to the next: an
         assignment to a gate's net is overwritten by its evaluation. *)
      Array.iteri
        (fun b stim ->
          if t < Array.length stim then begin
            let lanes = masks.(b) in
            let keep = lnot lanes in
            Array.iter
              (fun a ->
                let s = a lsr 2 and code = a land 3 in
                if s < cc.n_level0 then begin
                  state.(2 * s) <-
                    (state.(2 * s) land keep)
                    lor (lanes land - Bool.to_int (code = V3b.one));
                  state.((2 * s) + 1) <-
                    (state.((2 * s) + 1) land keep)
                    lor (lanes land - Bool.to_int (code = V3b.zero))
                end)
              stim.(t)
          end)
        stims;
      let row = p.rows.(j) in
      for i = 0 to (2 * cc.n_level0) - 1 do
        Array.unsafe_set row i (Array.unsafe_get state i)
      done;
      eval_range cc ~full row ~lo:cc.n_level0 ~hi:cc.n_slots;
      for k = 0 to cc.n_ffs - 1 do
        let s = 2 * cc.ff_slot.(k) and d = 2 * cc.ff_data.(k) in
        state.(s) <- row.(d);
        state.(s + 1) <- row.(d + 1)
      done
    done;
    p.first <- first;
    p.len <- len
end
