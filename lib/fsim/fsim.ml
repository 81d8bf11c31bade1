open Fst_logic
open Fst_netlist
open Fst_sim
open Fst_fault

type stimulus = Compiled.stimulus

(* The bit-parallel engine's per-worker scratch ([Parallel] below). A
   pass of up to 62 faulty machines shares one plane pair per slot,
   laid out as [Compiled.Planes]. A cycle starts from the good machine's
   planes, [good]. A sparse cycle works on them in place: it evaluates
   only the gates queued in [pending] (the gates with a fanin that
   differs from the good machine in some live lane, and those carrying a
   fault site), keeps its planes only where they differ, and logs each
   good value it overwrites in [undo] to put it back at the end of the
   cycle. A dense cycle, taken when many flip-flops differ, evaluates
   every gate into [own]. *)
type ctx = {
  cc : Compiled.t;
  mutable good : int array;
      (* the good planes of the cycle: a packed good-trace row, or
         [row_copy] *)
  row_copy : int array; (* a private copy of a packed good-trace row *)
  own : int array;
  undo : int array; (* [s; ones; zeros] per overwritten good value *)
  mutable n_undo : int;
  batch : int array; (* a level's queued gates without a fault site *)
  l0_good : int array;
      (* the good planes of a level-0 slot written this cycle, laid out
         as [good] *)
  saved : int array; (* slot -> the stamp its good planes were saved at *)
  pending : int array;
      (* the queued gates, 32 a word: gate [k] is bit [k land 31] of word
         [k lsr 5] *)
  latched : int array; (* flip-flop -> the stamp at which it latched *)
  mutable stamp : int; (* the current cycle's stamp, never reused *)
  mutable full : int;
  mutable hits : int;
  observed : Bytes.t; (* slot -> observed by the current call *)
  mutable obs : int array; (* the observed slots *)
  (* The current pass's fault sites: stem masks per slot (gate or
     level-0), branch masks per fanin pool index ([Compiled.fanin]) and per
     flip-flop data pin. [site] flags the slots with a stem mask and the
     gates with a branch mask; [site_order] holds those gates ascending. *)
  site : Bytes.t;
  ov1 : int array;
  ov0 : int array;
  br1 : int array;
  br0 : int array;
  ffm1 : int array;
  ffm0 : int array;
  mutable site_gates : int list;
  mutable site_order : int array;
  mutable site_stems0 : int list;
  mutable site_pins : int list;
  mutable site_ffs : int list;
  (* The flip-flops whose latched planes differ from the good machine:
     [cur_*] at this cycle, [nxt_*] at the next. *)
  mutable cur_k : int array;
  mutable cur1 : int array;
  mutable cur0 : int array;
  mutable n_cur : int;
  mutable nxt_k : int array;
  mutable nxt1 : int array;
  mutable nxt0 : int array;
  mutable n_nxt : int;
  walker : Compiled.walker; (* the cone walk's scratch *)
}

let make_ctx (cc : Compiled.t) =
  let n = cc.Compiled.n_slots + 1 and nff = max 1 cc.Compiled.n_ffs in
  let row_copy = Array.make (2 * n) 0 in
  {
    cc;
    good = row_copy;
    row_copy;
    own = Array.make (2 * n) 0;
    undo = Array.make (3 * n) 0;
    n_undo = 0;
    batch = Array.make n 0;
    l0_good = Array.make (2 * n) 0;
    saved = Array.make n (-1);
    pending = Array.make ((cc.Compiled.n_gates lsr 5) + 1) 0;
    latched = Array.make nff (-1);
    stamp = 0;
    full = 0;
    hits = 0;
    observed = Bytes.make n '\000';
    obs = [||];
    site = Bytes.make n '\000';
    ov1 = Array.make n 0;
    ov0 = Array.make n 0;
    br1 = Array.make (Array.length cc.Compiled.fanin) 0;
    br0 = Array.make (Array.length cc.Compiled.fanin) 0;
    ffm1 = Array.make nff 0;
    ffm0 = Array.make nff 0;
    site_gates = [];
    site_order = [||];
    site_stems0 = [];
    site_pins = [];
    site_ffs = [];
    cur_k = Array.make nff 0;
    cur1 = Array.make nff 0;
    cur0 = Array.make nff 0;
    n_cur = 0;
    nxt_k = Array.make nff 0;
    nxt1 = Array.make nff 0;
    nxt0 = Array.make nff 0;
    n_nxt = 0;
    walker = Compiled.walker cc;
  }

(* Both simulators below run on the compiled form of the circuit
   ([Fst_sim.Compiled]): flat levelized arrays, byte-coded values, no
   per-node dispatch. Compilation is cheap but not free, so the last
   compiled circuit is cached (keyed by physical equality — circuits are
   immutable once frozen), together with a stack of idle [ctx] values.
   The mutex makes the cache safe to hit from pool domains; the compiled
   form itself is immutable and shared read-only. *)
module Cc = struct
  type entry = { c : Circuit.t; cc : Compiled.t; mutable idle : ctx list }

  let lock = Mutex.create ()
  let cache : entry option ref = ref None

  let get c =
    Mutex.protect lock (fun () ->
        match !cache with
        | Some e when e.c == c -> e.cc
        | Some _ | None ->
          let cc = Compiled.of_circuit c in
          cache := Some { c; cc; idle = [] };
          cc)

  (* The cache entry of [cc], unless it has meanwhile been evicted. Call
     with the lock held. *)
  let entry cc =
    match !cache with Some e when e.cc == cc -> Some e | Some _ | None -> None

  (* [with_ctx cc f] runs [f] on an idle context of [cc], or a new one
     when none is idle, and puts the context back afterwards while fewer
     than one per core are idle. Every pass [f] installs is dropped
     before it returns; when [f] raises, a pass may be left in the
     context, so it is not put back. *)
  let with_ctx cc f =
    let idle =
      Mutex.protect lock (fun () ->
          match entry cc with
          | Some ({ idle = ctx :: rest; _ } as e) ->
            e.idle <- rest;
            Some ctx
          | Some _ | None -> None)
    in
    let ctx = match idle with Some ctx -> ctx | None -> make_ctx cc in
    let r = f ctx in
    Mutex.protect lock (fun () ->
        match entry cc with
        | Some e when List.length e.idle < Fst_exec.Pool.default_jobs () ->
          e.idle <- ctx :: e.idle
        | Some _ | None -> ());
    r
end

let obs_slots (cc : Compiled.t) observe =
  Array.map (fun o -> cc.Compiled.perm.(o)) observe

module Serial = struct
  (* One faulty machine at a time over the scalar kernel. The good
     machine is not re-simulated per fault: detection compares the faulty
     vector against the shared good-trace rows. *)

  (* Scratch reused across faults; [fanin] is a private copy of the
     compiled fanin pool so a branch fault can redirect one entry to the
     spare constant slot (and restore it afterwards). *)
  type ctx = {
    cc : Compiled.t;
    vec : Bytes.t;
    latch : Bytes.t;
    fanin : int array;
  }

  let ctx cc =
    {
      cc;
      vec = Compiled.make_vec cc;
      latch = Bytes.make (max 1 cc.Compiled.n_ffs) '\000';
      fanin = Array.copy cc.Compiled.fanin;
    }

  (* A fault lowered to slot space. *)
  type prep = {
    stem_slot : int; (* clamped slot, or -1 *)
    stem_code : int;
    stem_gate : int; (* gate index of the stem slot, or -1 *)
    redirect : int; (* fanin pool index redirected to the spare slot *)
    spare_code : int;
    ff_ov : int; (* flip-flop whose latch is overridden, or -1 *)
    ff_code : int;
  }

  let no_fault =
    { stem_slot = -1; stem_code = 0; stem_gate = -1; redirect = -1;
      spare_code = 0; ff_ov = -1; ff_code = 0 }

  let prep (cc : Compiled.t) (fault : Fault.t) =
    let code = if fault.Fault.stuck then V3b.one else V3b.zero in
    match fault.Fault.site with
    | Fault.Stem n ->
      let s = cc.Compiled.perm.(n) in
      { no_fault with stem_slot = s; stem_code = code;
        stem_gate = Compiled.slot_gate cc s }
    | Fault.Branch { node; pin } ->
      let s = cc.Compiled.perm.(node) in
      let k = Compiled.slot_gate cc s in
      if k >= 0 then
        { no_fault with redirect = cc.Compiled.fanin_off.(k) + pin;
          spare_code = code }
      else
        (* The only non-gate consumer is a flip-flop's data pin: the
           override applies at the clock edge. *)
        { no_fault with ff_ov = cc.Compiled.ff_of_slot.(s); ff_code = code }

  let install ctx p =
    Compiled.reset_vec ctx.cc ctx.vec;
    if p.redirect >= 0 then begin
      ctx.fanin.(p.redirect) <- ctx.cc.Compiled.n_slots;
      Compiled.set ctx.vec ctx.cc.Compiled.n_slots p.spare_code
    end

  let uninstall ctx p =
    if p.redirect >= 0 then
      ctx.fanin.(p.redirect) <- ctx.cc.Compiled.fanin.(p.redirect)

  (* One cycle's apply + stem clamp + levelized settle. A gate stem
     splits the sweep at its gate index: its consumers are all at
     strictly higher levels, so clamping between the two half-sweeps is
     equivalent to the interpreted machine's clamp-at-topo-position. *)
  let step ctx p (cstim : Compiled.cstim) t =
    let cc = ctx.cc in
    Compiled.apply ctx.vec cstim.(t);
    if p.stem_gate >= 0 then begin
      Compiled.eval_range cc ~fanin:ctx.fanin ctx.vec ~lo:0 ~hi:p.stem_gate;
      Compiled.set ctx.vec p.stem_slot p.stem_code;
      Compiled.eval_range cc ~fanin:ctx.fanin ctx.vec ~lo:(p.stem_gate + 1)
        ~hi:cc.Compiled.n_gates
    end
    else begin
      if p.stem_slot >= 0 then Compiled.set ctx.vec p.stem_slot p.stem_code;
      Compiled.eval cc ~fanin:ctx.fanin ctx.vec
    end

  let tick ctx p =
    let cc = ctx.cc in
    let data = cc.Compiled.ff_data and slot = cc.Compiled.ff_slot in
    for k = 0 to cc.Compiled.n_ffs - 1 do
      Bytes.unsafe_set ctx.latch k
        (Bytes.unsafe_get ctx.vec (Array.unsafe_get data k))
    done;
    if p.ff_ov >= 0 then Bytes.set ctx.latch p.ff_ov (Char.chr p.ff_code);
    for k = 0 to cc.Compiled.n_ffs - 1 do
      Bytes.unsafe_set ctx.vec (Array.unsafe_get slot k)
        (Bytes.unsafe_get ctx.latch k)
    done

  (* First detection cycle of one fault against the shared good rows. *)
  let detect_rows ctx p ~obs rows cstim =
    install ctx p;
    let n_cycles = Array.length cstim in
    let result = ref (-1) in
    let t = ref 0 in
    while !result < 0 && !t < n_cycles do
      step ctx p cstim !t;
      let row = rows.(!t) in
      let no = Array.length obs in
      let k = ref 0 in
      while !result < 0 && !k < no do
        let o = Array.unsafe_get obs !k in
        if
          V3b.detects ~good:(Compiled.get row o)
            ~faulty:(Compiled.get ctx.vec o)
        then result := !t;
        incr k
      done;
      if !result < 0 then begin
        tick ctx p;
        incr t
      end
    done;
    uninstall ctx p;
    if !result < 0 then None else Some !result

  let run_all ctx ~faults ~obs rows cstim =
    Array.map
      (fun fault -> detect_rows ctx (prep ctx.cc fault) ~obs rows cstim)
      faults

  (* [blocks] pairs each stimulus block with its good rows. *)
  let run_dropping ctx ~faults ~obs blocks =
    Array.map
      (fun fault ->
        let p = prep ctx.cc fault in
        let nb = Array.length blocks in
        let rec scan b =
          if b >= nb then None
          else
            let cstim, rows = blocks.(b) in
            match detect_rows ctx p ~obs rows cstim with
            | Some t -> Some (b, t)
            | None -> scan (b + 1)
        in
        scan 0)
      faults

  let detect c ~fault ~observe stim =
    let cc = Cc.get c in
    let cstim = Compiled.compile_stim cc stim in
    detect_rows (ctx cc) (prep cc fault) ~obs:(obs_slots cc observe)
      (Compiled.trace cc cstim) cstim

  let trace c ~fault ~observe stim =
    let cc = Cc.get c in
    let cstim = Compiled.compile_stim cc stim in
    let p = match fault with None -> no_fault | Some f -> prep cc f in
    let ctx = ctx cc in
    install ctx p;
    let obs = obs_slots cc observe in
    let rows = Array.make (Array.length cstim) [||] in
    for t = 0 to Array.length cstim - 1 do
      step ctx p cstim t;
      rows.(t) <-
        Array.map (fun o -> V3b.to_v3 (Compiled.get ctx.vec o)) obs;
      tick ctx p
    done;
    uninstall ctx p;
    rows

  let detect_all c ~faults ~observe stim =
    let cc = Cc.get c in
    let cstim = Compiled.compile_stim cc stim in
    run_all (ctx cc) ~faults ~obs:(obs_slots cc observe)
      (Compiled.trace cc cstim) cstim

  let detect_dropping c ~faults ~observe ~stimuli =
    let cc = Cc.get c in
    let blocks =
      Array.of_list
        (List.map
           (fun stim ->
             let cstim = Compiled.compile_stim cc stim in
             (cstim, Compiled.trace cc cstim))
           stimuli)
    in
    run_dropping (ctx cc) ~faults ~obs:(obs_slots cc observe) blocks
end

module Parallel = struct
  let max_group = 62

  (* Divergence-driven bit-parallel simulation. A pass of up to
     [max_group] faulty machines (lanes) runs against the good machine of
     its stimulus. Each cycle starts from the fault sites and from the
     flip-flops whose latched planes differ from the good machine, and
     evaluates a gate only when one of its fanins differs (or it carries a
     fault site). A slot whose planes come out equal to the good
     machine's in every live lane drops out and reads the good planes
     again, so the work per cycle follows the fault effects, not the
     fault's static cone. When many flip-flops differ, chasing the
     effects gate by gate costs more than evaluating every gate, and the
     cycle runs dense instead. Faults share a pass in cone-seed slot
     order so the effects of one pass overlap as much as possible. *)

  (* Installs the fault sites of one lane mask: [m1]/[m0] are the lanes
     the fault forces to 1/0. A branch fault on a net that is neither a
     gate nor a flip-flop has no pin, and raises. *)
  let add_site ctx (fault : Fault.t) ~m1 ~m0 =
    let cc = ctx.cc in
    let flag s = Bytes.unsafe_get ctx.site s <> '\000' in
    match fault.Fault.site with
    | Fault.Stem n ->
      let s = cc.Compiled.perm.(n) in
      if not (flag s) then begin
        Bytes.set ctx.site s '\001';
        if Compiled.slot_gate cc s >= 0 then ctx.site_gates <- s :: ctx.site_gates
        else ctx.site_stems0 <- s :: ctx.site_stems0
      end;
      ctx.ov1.(s) <- ctx.ov1.(s) lor m1;
      ctx.ov0.(s) <- ctx.ov0.(s) lor m0
    | Fault.Branch { node; pin } ->
      let s = cc.Compiled.perm.(node) in
      if Compiled.slot_gate cc s >= 0 then begin
        if not (flag s) then begin
          Bytes.set ctx.site s '\001';
          ctx.site_gates <- s :: ctx.site_gates
        end;
        let i = cc.Compiled.fanin_off.(Compiled.slot_gate cc s) + pin in
        if ctx.br1.(i) lor ctx.br0.(i) = 0 then
          ctx.site_pins <- i :: ctx.site_pins;
        ctx.br1.(i) <- ctx.br1.(i) lor m1;
        ctx.br0.(i) <- ctx.br0.(i) lor m0
      end
      else begin
        let f = cc.Compiled.ff_of_slot.(s) in
        if f < 0 then invalid_arg "Fsim: branch fault on a net with no pins";
        if ctx.ffm1.(f) lor ctx.ffm0.(f) = 0 then
          ctx.site_ffs <- f :: ctx.site_ffs;
        ctx.ffm1.(f) <- ctx.ffm1.(f) lor m1;
        ctx.ffm0.(f) <- ctx.ffm0.(f) lor m0
      end

  (* Installs the fault sites of a pass: fault [i] forces the lanes of
     [mask i]. *)
  let install ctx faults ~mask =
    Array.iteri
      (fun i (fault : Fault.t) ->
        let m = mask i in
        if fault.Fault.stuck then add_site ctx fault ~m1:m ~m0:0
        else add_site ctx fault ~m1:0 ~m0:m)
      faults;
    ctx.site_order <- Array.of_list (List.sort Int.compare ctx.site_gates)

  (* Clears the pass's fault sites and its carried flip-flops. *)
  let drop_sites ctx =
    let clear s =
      Bytes.set ctx.site s '\000';
      ctx.ov1.(s) <- 0;
      ctx.ov0.(s) <- 0
    in
    List.iter clear ctx.site_gates;
    List.iter clear ctx.site_stems0;
    List.iter
      (fun i ->
        ctx.br1.(i) <- 0;
        ctx.br0.(i) <- 0)
      ctx.site_pins;
    List.iter
      (fun f ->
        ctx.ffm1.(f) <- 0;
        ctx.ffm0.(f) <- 0)
      ctx.site_ffs;
    ctx.site_gates <- [];
    ctx.site_order <- [||];
    ctx.site_stems0 <- [];
    ctx.site_pins <- [];
    ctx.site_ffs <- [];
    ctx.n_cur <- 0

  let[@inline] set_bit a k =
    let w = k lsr 5 in
    Array.unsafe_set a w (Array.unsafe_get a w lor (1 lsl (k land 31)))

  (* Flip-flop [f] latches [v1]/[v0] (before its data-pin masks) where
     the good machine latches [g1]/[g0]: the next cycle carries it if
     they differ in a live lane. At most once a cycle. *)
  let latch ctx ~alive f ~g1 ~g0 v1 v0 =
    if ctx.latched.(f) <> ctx.stamp then begin
      ctx.latched.(f) <- ctx.stamp;
      let m1 = ctx.ffm1.(f) and m0 = ctx.ffm0.(f) in
      let keep = lnot (m1 lor m0) in
      let l1 = (v1 land keep) lor m1 and l0 = (v0 land keep) lor m0 in
      if ((l1 lxor g1) lor (l0 lxor g0)) land alive <> 0 then begin
        let n = ctx.n_nxt in
        ctx.nxt_k.(n) <- f;
        ctx.nxt1.(n) <- l1;
        ctx.nxt0.(n) <- l0;
        ctx.n_nxt <- n + 1
      end
    end

  (* Slot [s] holds [v1]/[v0] where the good machine holds [g1]/[g0];
     [d] is nonzero when they differ in a live lane. An observed slot
     shows its detections; a differing slot queues its consumer gates
     for this cycle and latches its consumer flip-flops. *)
  let[@inline] publish ctx ~alive s ~g1 ~g0 v1 v0 d =
    let cc = ctx.cc in
    if Bytes.unsafe_get ctx.observed s <> '\000' then
      ctx.hits <- ctx.hits lor (g1 land v0) lor (g0 land v1);
    if d <> 0 then begin
      let fanout = cc.Compiled.fanout and n0 = cc.Compiled.n_level0 in
      for i = Array.unsafe_get cc.Compiled.fanout_off s
          to Array.unsafe_get cc.Compiled.fanout_off (s + 1) - 1 do
        let c = Array.unsafe_get fanout i in
        if c >= n0 then set_bit ctx.pending (c - n0)
        else latch ctx ~alive cc.Compiled.ff_of_slot.(c) ~g1 ~g0 v1 v0
      done
    end

  let[@inline] log_undo ctx s g1 g0 =
    let n = ctx.n_undo in
    Array.unsafe_set ctx.undo n s;
    Array.unsafe_set ctx.undo (n + 1) g1;
    Array.unsafe_set ctx.undo (n + 2) g0;
    ctx.n_undo <- n + 3

  (* Level-0 slot [s] is about to be written: keep its good planes, once
     a cycle. *)
  let keep_good0 ctx s =
    if ctx.saved.(s) <> ctx.stamp then begin
      ctx.saved.(s) <- ctx.stamp;
      let g1 = ctx.good.(2 * s) and g0 = ctx.good.((2 * s) + 1) in
      ctx.l0_good.(2 * s) <- g1;
      ctx.l0_good.((2 * s) + 1) <- g0;
      log_undo ctx s g1 g0
    end

  (* A level-0 slot whose planes were written this cycle. *)
  let publish0 ctx ~alive s =
    let g1 = ctx.l0_good.(2 * s) and g0 = ctx.l0_good.((2 * s) + 1) in
    let v1 = ctx.good.(2 * s) and v0 = ctx.good.((2 * s) + 1) in
    let d = - Bool.to_int (((v1 lxor g1) lor (v0 lxor g0)) land alive <> 0) in
    publish ctx ~alive s ~g1 ~g0 v1 v0 d

  (* The index of the bit [b], a power of two below [2^32]: the powers
     of two are distinct modulo 37. *)
  let bit_index =
    let t = Array.make 37 0 in
    for i = 0 to 31 do
      t.((1 lsl i) mod 37) <- i
    done;
    fun b -> Array.unsafe_get t (b mod 37)

  (* The rare gate carrying a fault site, at slot [s] of [planes]: each
     fanin's planes and the output take the sites' masks. *)
  let eval_site ctx planes s =
    let cc = ctx.cc in
    let k = Compiled.slot_gate cc s in
    let op = cc.Compiled.gate_op.(k) in
    let pool = cc.Compiled.fanin_off.(k) in
    let n = cc.Compiled.fanin_off.(k + 1) - pool in
    let base = if op >= 6 then 0 else op lsr 1 in
    let full = ctx.full in
    let one = ref (if base = 0 then full else 0)
    and zero = ref (if base = 0 then 0 else full) in
    for pin = 0 to n - 1 do
      let f = 2 * cc.Compiled.fanin.(pool + pin) in
      let m1 = ctx.br1.(pool + pin) and m0 = ctx.br0.(pool + pin) in
      let keep = lnot (m1 lor m0) in
      let p1 = (planes.(f) land keep) lor m1
      and p0 = (planes.(f + 1) land keep) lor m0 in
      match base with
      | 0 ->
        one := !one land p1;
        zero := !zero lor p0
      | 1 ->
        one := !one lor p1;
        zero := !zero land p0
      | _ ->
        let o' = (!one land p0) lor (!zero land p1) in
        zero := (!one land p1) lor (!zero land p0);
        one := o'
    done;
    let v1, v0 = if op land 1 = 1 then (!zero, !one) else (!one, !zero) in
    let m1 = ctx.ov1.(s) and m0 = ctx.ov0.(s) in
    let keep = lnot (m1 lor m0) in
    planes.(2 * s) <- (v1 land keep) lor m1;
    planes.((2 * s) + 1) <- (v0 land keep) lor m0

  (* The level-0 slots of [planes]: the carried flip-flops, then the stem
     masks on top of their planes or of the good ones. A sparse cycle
     ([keep]) keeps their good planes first. *)
  let write_level0 ctx planes ~keep =
    let cc = ctx.cc in
    for j = 0 to ctx.n_cur - 1 do
      let s = cc.Compiled.ff_slot.(ctx.cur_k.(j)) in
      if keep then keep_good0 ctx s;
      planes.(2 * s) <- ctx.cur1.(j);
      planes.((2 * s) + 1) <- ctx.cur0.(j)
    done;
    List.iter
      (fun s ->
        if keep then keep_good0 ctx s;
        let m1 = ctx.ov1.(s) and m0 = ctx.ov0.(s) in
        let keep = lnot (m1 lor m0) in
        planes.(2 * s) <- (planes.(2 * s) land keep) lor m1;
        planes.((2 * s) + 1) <- (planes.((2 * s) + 1) land keep) lor m0)
      ctx.site_stems0

  (* The undo entries from [u0] on are the gates of one level, just
     evaluated over their good planes: a gate that differs keeps its new
     planes, and its entry the good ones; a gate back in sync gets the
     good planes back, and its entry is dropped. *)
  let settle ctx ~alive u0 =
    let planes = ctx.good and undo = ctx.undo in
    let n = ctx.n_undo in
    let kept = ref u0 in
    let u = ref u0 in
    while !u < n do
      let s = Array.unsafe_get undo !u in
      let g1 = Array.unsafe_get undo (!u + 1)
      and g0 = Array.unsafe_get undo (!u + 2) in
      let v1 = Array.unsafe_get planes (2 * s)
      and v0 = Array.unsafe_get planes ((2 * s) + 1) in
      let d = - Bool.to_int (((v1 lxor g1) lor (v0 lxor g0)) land alive <> 0) in
      Array.unsafe_set planes (2 * s) (g1 lxor ((v1 lxor g1) land d));
      Array.unsafe_set planes ((2 * s) + 1) (g0 lxor ((v0 lxor g0) land d));
      let k = !kept in
      Array.unsafe_set undo k s;
      Array.unsafe_set undo (k + 1) g1;
      Array.unsafe_set undo (k + 2) g0;
      kept := k + (3 land d);
      publish ctx ~alive s ~g1 ~g0 v1 v0 d;
      u := !u + 3
    done;
    ctx.n_undo <- !kept

  (* A sparse cycle on [good], which holds the good machine's planes of
     the cycle and holds them again on return. *)
  let sparse_cycle ctx ~alive =
    let cc = ctx.cc in
    let planes = ctx.good in
    write_level0 ctx planes ~keep:true;
    for j = 0 to ctx.n_cur - 1 do
      publish0 ctx ~alive cc.Compiled.ff_slot.(ctx.cur_k.(j))
    done;
    List.iter (publish0 ctx ~alive) ctx.site_stems0;
    List.iter
      (fun s -> set_bit ctx.pending (s - cc.Compiled.n_level0))
      ctx.site_gates;
    (* Then the queued gates, level by level: a gate only queues gates
       of higher levels, so a level's queue is complete when its turn
       comes, and the gates of one level read none of each other. The
       walk skips to the level of the lowest queued gate. *)
    let n0 = cc.Compiled.n_level0 and lg = cc.Compiled.level_gate in
    let level = cc.Compiled.circuit.Circuit.level in
    let pending = ctx.pending and batch = ctx.batch in
    let next = ref 0 in
    while !next < Array.length pending do
      let x0 = Array.unsafe_get pending !next in
      if x0 = 0 then incr next
      else begin
        let k = (!next lsl 5) + bit_index (x0 land - x0) in
        let l = level.(cc.Compiled.net_of.(n0 + k)) in
        let lo = lg.(l) and hi = lg.(l + 1) in
        let u0 = ctx.n_undo in
        let nb = ref 0 in
        for w = lo lsr 5 to (hi - 1) lsr 5 do
          let base = w lsl 5 in
          let m =
            (if hi - base >= 32 then -1 else (1 lsl (hi - base)) - 1)
            land lnot ((1 lsl max 0 (lo - base)) - 1)
          in
          let x = ref (Array.unsafe_get pending w land m) in
          if !x <> 0 then begin
            Array.unsafe_set pending w (Array.unsafe_get pending w lxor !x);
            while !x <> 0 do
              let b = !x land - !x in
              x := !x lxor b;
              let s = n0 + base + bit_index b in
              log_undo ctx s (Array.unsafe_get planes (2 * s))
                (Array.unsafe_get planes ((2 * s) + 1));
              if Bytes.unsafe_get ctx.site s <> '\000' then
                eval_site ctx planes s
              else begin
                Array.unsafe_set batch !nb s;
                incr nb
              end
            done
          end
        done;
        Compiled.Planes.eval_list cc ~full:ctx.full planes batch ~n:!nb;
        settle ctx ~alive u0;
        next := hi lsr 5
      end
    done;
    (* A flip-flop with a data-pin fault latches whether or not its data
       slot differs. *)
    List.iter
      (fun f ->
        let d = cc.Compiled.ff_data.(f) in
        let v1 = planes.(2 * d) and v0 = planes.((2 * d) + 1) in
        latch ctx ~alive f ~g1:v1 ~g0:v0 v1 v0)
      ctx.site_ffs;
    (* Put the good planes back, latest write first. *)
    let undo = ctx.undo in
    let i = ref (ctx.n_undo - 3) in
    while !i >= 0 do
      let s = Array.unsafe_get undo !i in
      Array.unsafe_set planes (2 * s) (Array.unsafe_get undo (!i + 1));
      Array.unsafe_set planes ((2 * s) + 1) (Array.unsafe_get undo (!i + 2));
      i := !i - 3
    done

  (* A dense cycle: the good level-0 planes into [own], then every gate
     in gate order, then the detections and the latches against the good
     machine. *)
  let dense_cycle ctx ~alive =
    let cc = ctx.cc in
    let good = ctx.good and own = ctx.own and full = ctx.full in
    for i = 0 to (2 * cc.Compiled.n_level0) - 1 do
      Array.unsafe_set own i (Array.unsafe_get good i)
    done;
    write_level0 ctx own ~keep:false;
    let lo =
      Array.fold_left
        (fun lo s ->
          Compiled.Planes.eval_range cc ~full own ~lo ~hi:s;
          eval_site ctx own s;
          s + 1)
        cc.Compiled.n_level0 ctx.site_order
    in
    Compiled.Planes.eval_range cc ~full own ~lo ~hi:cc.Compiled.n_slots;
    Array.iter
      (fun o ->
        ctx.hits <-
          ctx.hits
          lor (good.(2 * o) land own.((2 * o) + 1))
          lor (good.((2 * o) + 1) land own.(2 * o)))
      ctx.obs;
    for f = 0 to cc.Compiled.n_ffs - 1 do
      let d = 2 * cc.Compiled.ff_data.(f) in
      latch ctx ~alive f ~g1:good.(d) ~g0:good.(d + 1) own.(d) own.(d + 1)
    done

  (* A cycle is dense once this many flip-flops differ. On the step-2
     fault simulation of s38417 (1,700 gates) a sparse cycle evaluates
     about 50 + 28 gates per differing flip-flop, at several times the
     cost per gate of a dense sweep; the two break even between 4 and 10
     differing flip-flops. *)
  let dense_from = 8

  (* The flip-flops queued for the next cycle become the current ones, and
     the next queue is empty. *)
  let swap_ffs ctx =
    let k = ctx.cur_k and c1 = ctx.cur1 and c0 = ctx.cur0 in
    ctx.cur_k <- ctx.nxt_k;
    ctx.cur1 <- ctx.nxt1;
    ctx.cur0 <- ctx.nxt0;
    ctx.nxt_k <- k;
    ctx.nxt1 <- c1;
    ctx.nxt0 <- c0;
    ctx.n_cur <- ctx.n_nxt;
    ctx.n_nxt <- 0

  (* One cycle of the pass against the good planes in [ctx.good];
     returns the live lanes it detects. The flip-flops whose latched
     planes differ are carried to the next cycle. *)
  let cycle ctx ~alive =
    ctx.stamp <- ctx.stamp + 1;
    ctx.hits <- 0;
    ctx.n_nxt <- 0;
    ctx.n_undo <- 0;
    if ctx.n_cur >= dense_from then dense_cycle ctx ~alive
    else sparse_cycle ctx ~alive;
    swap_ffs ctx;
    ctx.hits land alive

  (* Fault order for the passes: by cone-seed slot (cone overlap within
     a pass), ties by input index (determinism). *)
  let group_order (cc : Compiled.t) faults idxs =
    let key i = cc.Compiled.perm.(Fault.seed faults.(i)) in
    let a = Array.copy idxs in
    Array.sort
      (fun x y ->
        match Int.compare (key x) (key y) with
        | 0 -> Int.compare x y
        | d -> d)
      a;
    a

  (* --- the lane layout -------------------------------------------------- *)

  (* A call takes its blocks in chunks of [k = min max_group (blocks
     left)]. The good machine of a chunk is packed once with each block in
     [m = max_group / k] lanes ([Compiled.Planes.trace_packed]: block [j]
     in lanes [j, j + k, ...]), and each pass over the chunk holds up to
     [m] pending faults, in [group_order]: fault [i] of a pass owns lanes
     [i * k .. i * k + k - 1], one per block. So 62 blocks run one fault a
     pass, and one block runs 62 faults a pass. A fault's answer is its
     lowest detecting lane, with its first cycle — the serial block scan's
     answer. The packed trace is recorded slice by slice
     ([Compiled.Planes.next_slice]); between two slices a pass keeps its
     live lanes, each fault's best detection so far and the planes of its
     differing flip-flops. *)
  type pass = {
    faults : int array; (* the pass's faults, as indices of the call's *)
    mutable alive : int;
    best : int array; (* per fault, its lowest detecting block, or -1 *)
    best_t : int array;
    mutable carry : int array; (* [f; ones; zeros] per differing flip-flop *)
  }

  (* Runs [pass] over the current slice of [p]; [live.(j)] is the mask of
     the lanes whose block is still running at cycle [p.first + j]. A
     sparse cycle works on the slice's row in place, and puts it back;
     when other shards read the row [concurrent]ly, it works on a copy. *)
  let advance ctx (p : Compiled.Planes.packed) ~concurrent ~live faults pass =
    let k = p.Compiled.Planes.blocks in
    let own = (1 lsl k) - 1 in
    install ctx (Array.map (fun i -> faults.(i)) pass.faults) ~mask:(fun i ->
        own lsl (i * k));
    ctx.full <- (1 lsl p.Compiled.Planes.lanes) - 1;
    let carry = pass.carry in
    ctx.n_cur <- Array.length carry / 3;
    for j = 0 to ctx.n_cur - 1 do
      ctx.cur_k.(j) <- carry.(3 * j);
      ctx.cur1.(j) <- carry.((3 * j) + 1);
      ctx.cur0.(j) <- carry.((3 * j) + 2)
    done;
    let first = p.Compiled.Planes.first in
    let j = ref 0 in
    while pass.alive <> 0 && !j < p.Compiled.Planes.len do
      pass.alive <- pass.alive land live.(!j);
      if pass.alive <> 0 then begin
        let row = p.Compiled.Planes.rows.(!j) in
        if concurrent then begin
          ctx.good <- ctx.row_copy;
          for i = 0 to Array.length row - 1 do
            Array.unsafe_set ctx.row_copy i (Array.unsafe_get row i)
          done
        end
        else ctx.good <- row;
        let hits = ref (cycle ctx ~alive:pass.alive) in
        (* A fault's lowest detecting lane bounds its answer: its own
           higher lanes drop, and only lower ones can still improve it. *)
        let l = ref 0 in
        while !hits <> 0 do
          if !hits land (1 lsl !l) <> 0 then begin
            let i = !l / k in
            pass.best.(i) <- !l - (i * k);
            pass.best_t.(i) <- first + !j;
            let mine = own lsl (i * k) in
            pass.alive <- pass.alive land lnot (mine land - (1 lsl !l));
            hits := !hits land lnot mine
          end;
          incr l
        done
      end;
      incr j
    done;
    pass.carry <-
      (if pass.alive = 0 then [||]
       else
         Array.init (3 * ctx.n_cur) (fun i ->
             let j = i / 3 in
             match i mod 3 with
             | 0 -> ctx.cur_k.(j)
             | 1 -> ctx.cur1.(j)
             | _ -> ctx.cur0.(j)));
    drop_sites ctx

  (* The dropping simulation of [faults] over [stims]: per fault, its
     first detecting block and cycle. [map f items] runs [f ctx shard]
     over shards of [items], each shard on a context whose observed slots
     are flagged; [slice f] records one slice. [concurrent] says whether
     the shards may run at the same time. *)
  let run cc ~faults ~(stims : Compiled.cstim array) ~map ~slice ~concurrent =
    let nf = Array.length faults in
    let result = Array.make nf None in
    let nb = Array.length stims in
    (* Faults whose cone reaches no observed slot are never detected. *)
    let reach =
      map ~cycles:0
        (fun ctx shard ->
          Array.map
            (fun i ->
              Compiled.reaches ctx.walker cc
                ~seeds:[| cc.Compiled.perm.(Fault.seed faults.(i)) |]
                ctx.observed)
            shard)
        (Array.init nf Fun.id)
    in
    let pending =
      ref
        (group_order cc faults
           (Array.of_seq (Seq.filter (fun i -> reach.(i)) (Seq.init nf Fun.id))))
    in
    let base = ref 0 in
    while !base < nb && Array.length !pending > 0 do
      let k = min max_group (nb - !base) in
      let np = Array.length !pending in
      let m = min (max_group / k) np in
      let p =
        Compiled.Planes.trace_packed cc (Array.sub stims !base k) ~copies:m
      in
      let passes =
        Array.init ((np + m - 1) / m) (fun q ->
            let n = min m (np - (q * m)) in
            { faults = Array.sub !pending (q * m) n;
              alive = (1 lsl (n * k)) - 1; best = Array.make n (-1);
              best_t = Array.make n 0; carry = [||] })
      in
      let running = ref (Array.init (Array.length passes) Fun.id) in
      while
        Array.length !running > 0
        && p.Compiled.Planes.first + p.Compiled.Planes.len
           < p.Compiled.Planes.cycles
      do
        slice (fun () -> Compiled.Planes.next_slice cc p);
        let first = p.Compiled.Planes.first in
        let live =
          Array.init p.Compiled.Planes.len (fun j ->
              let mask = ref 0 in
              Array.iteri
                (fun l n -> if n > first + j then mask := !mask lor (1 lsl l))
                p.Compiled.Planes.lane_len;
              !mask)
        in
        ignore
          (map ~cycles:p.Compiled.Planes.len
             (fun ctx shard ->
               Array.iter
                 (fun q -> advance ctx p ~concurrent ~live faults passes.(q))
                 shard;
               [||])
             !running);
        running :=
          Array.of_seq
            (Seq.filter (fun q -> passes.(q).alive <> 0) (Array.to_seq !running))
      done;
      Array.iter
        (fun pass ->
          Array.iteri
            (fun i f ->
              if pass.best.(i) >= 0 then
                result.(f) <- Some (!base + pass.best.(i), pass.best_t.(i)))
            pass.faults)
        passes;
      pending :=
        Array.of_seq
          (Seq.filter (fun i -> result.(i) = None) (Array.to_seq !pending));
      base := !base + k
    done;
    result

  (* --- the scan-mode steady state ----------------------------------------- *)

  (* A steady-state pass runs up to [max_group] faults, one lane each, on
     [ctx.own]: the good scan-mode planes in every lane, never reset
     within a pass. A sweep evaluates the queued gates in ascending slot
     (level) order; a changed slot queues its consumer gates, and its
     consumer flip-flops, which latch together at the sweep's end in the
     lanes whose data changed ([moved]). [undo] is the dirty list: each
     slot's good planes, logged on its first change. A flip-flop lane
     changing a third time ([once], [twice]) is widened to X. *)
  type ff_lanes = { moved : int array; once : int array; twice : int array }

  let queue_ff ctx ff f lanes =
    ff.moved.(f) <- ff.moved.(f) lor lanes;
    if ctx.latched.(f) <> ctx.stamp then begin
      ctx.latched.(f) <- ctx.stamp;
      ctx.nxt_k.(ctx.n_nxt) <- f;
      ctx.n_nxt <- ctx.n_nxt + 1
    end

  (* Slot [s] changed from [o1]/[o0]; [since] is the pass's first stamp. *)
  let changed ctx ff ~since planes s o1 o0 =
    let cc = ctx.cc in
    if ctx.saved.(s) < since then begin
      ctx.saved.(s) <- ctx.stamp;
      log_undo ctx s o1 o0
    end;
    let lanes = (planes.(2 * s) lxor o1) lor (planes.((2 * s) + 1) lxor o0) in
    for i = cc.Compiled.fanout_off.(s) to cc.Compiled.fanout_off.(s + 1) - 1 do
      let c = cc.Compiled.fanout.(i) in
      let f = cc.Compiled.ff_of_slot.(c) in
      if f < 0 then set_bit ctx.pending (c - cc.Compiled.n_level0)
      else queue_ff ctx ff f lanes
    done

  let write ctx ff ~since planes s v1 v0 =
    let o1 = planes.(2 * s) and o0 = planes.((2 * s) + 1) in
    planes.(2 * s) <- v1;
    planes.((2 * s) + 1) <- v0;
    if v1 <> o1 || v0 <> o0 then changed ctx ff ~since planes s o1 o0

  let sweep ctx ff ~since planes =
    let cc = ctx.cc and pending = ctx.pending in
    let w = ref 0 in
    while !w < Array.length pending do
      let x = pending.(!w) in
      if x = 0 then incr w
      else begin
        pending.(!w) <- x land (x - 1);
        let s = cc.Compiled.n_level0 + (!w lsl 5) + bit_index (x land - x) in
        let o1 = planes.(2 * s) and o0 = planes.((2 * s) + 1) in
        if Bytes.get ctx.site s <> '\000' then eval_site ctx planes s
        else Compiled.Planes.eval_range cc ~full:ctx.full planes ~lo:s ~hi:(s + 1);
        if planes.(2 * s) <> o1 || planes.((2 * s) + 1) <> o0 then
          changed ctx ff ~since planes s o1 o0
      end
    done

  (* The sweep's end: each queued flip-flop takes its data planes, under
     its pin and output masks, in its moved lanes (widened to X on a third
     change), all before any is written. *)
  let latch_queued ctx ff ~since planes =
    let cc = ctx.cc in
    for j = 0 to ctx.n_nxt - 1 do
      let f = ctx.nxt_k.(j) in
      let d = 2 * cc.Compiled.ff_data.(f) and s = cc.Compiled.ff_slot.(f) in
      let m = ff.moved.(f) and p1 = ctx.ffm1.(f) and p0 = ctx.ffm0.(f) in
      let o1 = planes.(2 * s) and o0 = planes.((2 * s) + 1) in
      let v1 = (((planes.(d) land lnot p0) lor p1) land m) lor (o1 land lnot m)
      and v0 = (((planes.(d + 1) land lnot p1) lor p0) land m) lor (o0 land lnot m) in
      let v1 = (v1 land lnot ctx.ov0.(s)) lor ctx.ov1.(s)
      and v0 = (v0 land lnot ctx.ov1.(s)) lor ctx.ov0.(s) in
      let x = lnot (((v1 lxor o1) lor (v0 lxor o0)) land ff.twice.(f)) in
      let ch = ((v1 land x) lxor o1) lor ((v0 land x) lxor o0) in
      ff.moved.(f) <- 0;
      ff.twice.(f) <- ff.twice.(f) lor (ff.once.(f) land ch);
      ff.once.(f) <- ff.once.(f) lor ch;
      ctx.nxt1.(j) <- v1 land x;
      ctx.nxt0.(j) <- v0 land x
    done;
    swap_ffs ctx;
    ctx.stamp <- ctx.stamp + 1;
    for j = 0 to ctx.n_cur - 1 do
      write ctx ff ~since planes cc.Compiled.ff_slot.(ctx.cur_k.(j)) ctx.cur1.(j)
        ctx.cur0.(j)
    done

  (* One pass, fault [i] on lane [i]: per fault, [f] of the fault and of
     the observed nets whose final value differs from the good one, with
     that value. *)
  let steady_pass ctx ff f (faults : Fault.t array) =
    let cc = ctx.cc and planes = ctx.own in
    install ctx faults ~mask:(fun i -> 1 lsl i);
    ctx.stamp <- ctx.stamp + 1;
    let since = ctx.stamp in
    ctx.n_undo <- 0;
    List.iter
      (fun s ->
        let m1 = ctx.ov1.(s) and m0 = ctx.ov0.(s) in
        write ctx ff ~since planes s
          ((planes.(2 * s) land lnot m0) lor m1)
          ((planes.((2 * s) + 1) land lnot m1) lor m0))
      ctx.site_stems0;
    List.iter (fun s -> set_bit ctx.pending (s - cc.Compiled.n_level0)) ctx.site_gates;
    List.iter (fun f -> queue_ff ctx ff f (ctx.ffm1.(f) lor ctx.ffm0.(f))) ctx.site_ffs;
    sweep ctx ff ~since planes;
    while ctx.n_nxt > 0 do
      latch_queued ctx ff ~since planes;
      sweep ctx ff ~since planes
    done;
    (* The observed dirty slots, as undo offsets in [batch]; then each
       fault's list, built and handed to [f] one lane at a time. *)
    let undo = ctx.undo and nb = ref 0 and lanes = ref 0 in
    for u = 0 to (ctx.n_undo / 3) - 1 do
      let s = undo.(3 * u) in
      if Bytes.get ctx.observed s <> '\000' then begin
        ctx.batch.(!nb) <- 3 * u;
        incr nb;
        lanes :=
          !lanes
          lor (planes.(2 * s) lxor undo.((3 * u) + 1))
          lor (planes.((2 * s) + 1) lxor undo.((3 * u) + 2))
      end
    done;
    let r =
      Array.mapi
        (fun i fault ->
          let l = ref [] in
          if !lanes land (1 lsl i) <> 0 then
            for k = 0 to !nb - 1 do
              let u = ctx.batch.(k) in
              let s = undo.(u) in
              let v1 = planes.(2 * s) and v0 = planes.((2 * s) + 1) in
              if ((v1 lxor undo.(u + 1)) lor (v0 lxor undo.(u + 2))) land (1 lsl i) <> 0
              then
                l :=
                  ( cc.Compiled.net_of.(s),
                    if v1 land (1 lsl i) <> 0 then V3.One
                    else if v0 land (1 lsl i) <> 0 then V3.Zero
                    else V3.X )
                  :: !l
            done;
          f fault !l)
        faults
    in
    for u = 0 to (ctx.n_undo / 3) - 1 do
      let s = undo.(3 * u) in
      planes.(2 * s) <- undo.((3 * u) + 1);
      planes.((2 * s) + 1) <- undo.((3 * u) + 2);
      let f = cc.Compiled.ff_of_slot.(s) in
      if f >= 0 then begin
        ff.once.(f) <- 0;
        ff.twice.(f) <- 0
      end
    done;
    drop_sites ctx;
    r

  (* Runs [passes] from [good], the scalar good scan-mode row. *)
  let steady ctx good f passes =
    let n = max 1 ctx.cc.Compiled.n_ffs in
    ctx.full <- (1 lsl max_group) - 1;
    Compiled.Planes.broadcast good ~full:ctx.full ctx.own
      ~upto:ctx.cc.Compiled.n_slots;
    let ff = { moved = Array.make n 0; once = Array.make n 0; twice = Array.make n 0 } in
    Array.map (steady_pass ctx ff f) passes
end

module Engine = struct
  module Pool = Fst_exec.Pool
  module Sink = Fst_obs.Sink
  module Metrics = Fst_obs.Metrics

  let max_group = Parallel.max_group

  (* The metric handles of one entry, resolved once per registry. *)
  type handles = {
    registry : Metrics.t;
    calls : Metrics.Counter.c;
    n_faults : Metrics.Counter.c;
    call_s : Metrics.Histogram.h;
  }

  (* An entry point: its span name, [fsim.<entry>], which prefixes its
     metric names, and its handles in the last registry it reported to. *)
  type entry = { span : string; cached : handles option Atomic.t }

  let entry name = { span = "fsim." ^ name; cached = Atomic.make None }

  let detect_all_entry = entry "detect_all"
  let detect_dropping_entry = entry "detect_dropping"
  let steady_state_entry = entry "steady_state"

  let handles e m =
    match Atomic.get e.cached with
    | Some h when h.registry == m -> h
    | Some _ | None ->
      let metric suffix = e.span ^ "." ^ suffix in
      let h =
        { registry = m; calls = Metrics.counter m (metric "calls");
          n_faults = Metrics.counter m (metric "faults");
          call_s = Metrics.histogram m (metric "call_s") }
      in
      Atomic.set e.cached (Some h);
      h

  (* One branch when the sink is off; the clock is read only on live
     sinks. A call is two stages — [trace] prepares the good machine,
     [simulate] runs the faults against it — and a live sink traces each
     as a child span of the call's. The inner simulation loops in
     [Parallel] are never touched. *)
  let observe_call (obs : Sink.t) e ~faults ~trace ~simulate =
    if not obs.Sink.enabled then simulate (trace ())
    else begin
      let h = handles e obs.Sink.metrics in
      Metrics.Counter.incr h.calls;
      Metrics.Counter.add h.n_faults (Array.length faults);
      let t0 = Fst_exec.Clock.now () in
      let r =
        Sink.span obs ~name:e.span ~cat:"fsim" (fun () ->
            let good = Sink.span obs ~name:"fsim.trace" ~cat:"fsim" trace in
            Sink.span obs ~name:"fsim.simulate" ~cat:"fsim" (fun () ->
                simulate good))
      in
      Metrics.Histogram.observe h.call_s (Fst_exec.Clock.now () -. t0);
      r
    end

  (* About four shards per domain that will actually run (the pool
     clamps [jobs] to the core count) feed the work-stealing queue;
     over-sharding for phantom domains only multiplies per-shard setup. A
     shard never splits a pass: the items are whole passes (or faults,
     for the cone check). *)
  let shards ~jobs items =
    let n_items = Array.length items in
    let target = max 1 (min jobs (Pool.default_jobs ()) * 4) in
    let size = max 1 ((n_items + target - 1) / target) in
    let n = (n_items + size - 1) / size in
    Array.init n (fun k ->
        Array.sub items (k * size) (min size (n_items - (k * size))))

  (* Chaos hook at every engine entry: a [Raise] injection here exercises
     the callers' retry/containment paths; [Cancel] has no local meaning
     (detection has no token) and is ignored per the {!Fst_exec.Chaos}
     contract. A single atomic load when disarmed. *)
  let chaos_entry () =
    match Fst_exec.Chaos.point Fst_exec.Chaos.Engine with
    | `Ok | `Cancel -> ()

  (* [map_shards ~obs ~jobs cc observed ~work f items] runs [f ctx shard]
     over shards of [items] on the pool, each on a context taken from the
     cached circuit's idle stack with the [observed] slots flagged, and
     concatenates the per-shard results back into input order. [work] is
     the pool's minimum-work estimate in gate evaluations, so tiny
     workloads run in the caller even with [jobs > 1]. *)
  let map_shards ~obs ~jobs cc observed ~work f items =
    Pool.map_array ~obs ~label:"fsim" ~chunk:1 ~work ~jobs
      (fun shard ->
        Cc.with_ctx cc (fun ctx ->
            Array.iter (fun s -> Bytes.set ctx.observed s '\001') observed;
            ctx.obs <- observed;
            let r = f ctx shard in
            Array.iter (fun s -> Bytes.set ctx.observed s '\000') observed;
            ctx.obs <- [||];
            r))
      (shards ~jobs items)
    |> Array.to_list |> Array.concat

  (* One dropping run under [e]'s instrumentation. The [trace] stage
     compiles the circuit and the blocks; the packed good trace itself is
     recorded slice by slice as the passes advance (each slice in an
     [fsim.slice] span). A [map]'s work is at most one whole-netlist sweep
     per item per cycle. An empty fault list compiles and simulates
     nothing. *)
  let dropping ~obs ~jobs e c ~faults ~observe stims =
    chaos_entry ();
    let jobs = max 1 jobs in
    observe_call obs e ~faults
      ~trace:(fun () ->
        if Array.length faults = 0 then None
        else
          let cc = Cc.get c in
          Some (cc, Array.map (Compiled.compile_stim cc) stims))
      ~simulate:(function
        | None -> [||]
        | Some (cc, stims) ->
          let map ~cycles f items =
            map_shards ~obs ~jobs cc (obs_slots cc observe)
              ~work:(Array.length items * max 1 cc.Compiled.n_gates * cycles)
              f items
          in
          Parallel.run cc ~faults ~stims ~map
            ~concurrent:(min jobs (Pool.default_jobs ()) > 1)
            ~slice:(fun f -> Sink.span obs ~name:"fsim.slice" ~cat:"fsim" f))

  let detect_all ?(obs = Sink.null) ?(jobs = 1) c ~faults ~observe stim =
    Array.map (Option.map snd)
      (dropping ~obs ~jobs detect_all_entry c ~faults ~observe [| stim |])

  let detect_dropping ?(obs = Sink.null) ?(jobs = 1) c ~faults ~observe
      ~stimuli =
    dropping ~obs ~jobs detect_dropping_entry c ~faults ~observe
      (Array.of_list stimuli)

  (* Passes of [max_group] faults in [group_order], sharded like a
     dropping run's. No chaos hook: classification has no retry or
     containment path. *)
  let steady_state ?(obs = Sink.null) ?(jobs = 1) c ~constraints ~faults
      ~watch f =
    let jobs = max 1 jobs and nf = Array.length faults in
    observe_call obs steady_state_entry ~faults
      ~trace:(fun () ->
        let cc = Cc.get c in
        let good = Compiled.make_vec cc in
        List.iter
          (fun (n, v) -> Compiled.set good cc.Compiled.perm.(n) (V3b.of_v3 v))
          constraints;
        Compiled.eval cc good;
        (cc, good))
      ~simulate:(fun (cc, good) ->
        let order = Parallel.group_order cc faults (Array.init nf Fun.id) in
        let passes =
          Array.init ((nf + max_group - 1) / max_group) (fun q ->
              Array.sub order (q * max_group) (min max_group (nf - (q * max_group))))
        in
        let outs =
          map_shards ~obs ~jobs cc (obs_slots cc watch)
            ~work:(Array.length passes * max 1 cc.Compiled.n_gates)
            (fun ctx shard ->
              Parallel.steady ctx good f (Array.map (Array.map (Array.get faults)) shard))
            passes
          |> Array.to_list |> Array.concat
        in
        let at = Array.make nf 0 in
        Array.iteri (fun k i -> at.(i) <- k) order;
        Array.map (Array.get outs) at)
end
