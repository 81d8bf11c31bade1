open Fst_logic
open Fst_netlist
open Fst_sim
open Fst_fault

type stimulus = Compiled.stimulus

module type ENGINE = sig
  val detect_all :
    Circuit.t ->
    faults:Fault.t array ->
    observe:int array ->
    stimulus ->
    int option array

  val detect_dropping :
    Circuit.t ->
    faults:Fault.t array ->
    observe:int array ->
    stimuli:stimulus list ->
    (int * int) option array
end

(* Every back-end below runs on the compiled form of the circuit
   ([Fst_sim.Compiled]): flat levelized arrays, byte-coded values, no
   per-node dispatch. Compilation is cheap but not free, so the last
   compiled circuit is cached (keyed by physical equality — circuits are
   immutable once frozen), together with a per-seed memo table the
   pattern-packed path fills with each cone seed's good-trace read set.
   The mutex makes the cache safe to hit from pool domains; the compiled
   form itself is immutable and shared read-only. *)
module Cc = struct
  let lock = Mutex.create ()

  let cache : (Circuit.t * Compiled.t * (int, int array) Hashtbl.t) option ref
      =
    ref None

  let get c =
    Mutex.lock lock;
    let cc =
      match !cache with
      | Some (c', cc, _) when c' == c -> cc
      | Some _ | None ->
        let cc = Compiled.of_circuit c in
        cache := Some (c, cc, Hashtbl.create 64);
        cc
    in
    Mutex.unlock lock;
    cc

  (* [memo cc seed f] is [f seed], computed once per seed of the cached
     compiled circuit ([f] must not reenter the cache). A circuit that
     has meanwhile been evicted just computes. *)
  let memo cc seed f =
    Mutex.lock lock;
    let v =
      match !cache with
      | Some (_, cc', tbl) when cc' == cc -> (
        match Hashtbl.find_opt tbl seed with
        | Some v -> v
        | None ->
          let v = f seed in
          Hashtbl.add tbl seed v;
          v)
      | Some _ | None -> f seed
    in
    Mutex.unlock lock;
    v
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

  (* Cone-clipped bit-parallel simulation. A group of up to [max_group]
     faulty machines shares one plane pair per slot; only slots inside
     the group's union fanout cone are ever evaluated — everything else
     is read straight off the shared good trace, broadcast to all lanes,
     which is sound because out-of-cone slots never diverge. Faults are
     grouped in cone-seed slot order so the cones of one group overlap as
     much as possible. *)

  (* Per-gate overrides of one group: output stem-injection masks and
     branch-fault pin overrides (pool index, one-mask, zero-mask). *)
  type ov = { stem_m1 : int; stem_m0 : int; branch : (int * int * int) list }

  type ctx = {
    cc : Compiled.t;
    ones : int array;
    zeros : int array;
    lat1 : int array;
    lat0 : int array;
    flag : Bytes.t; (* slot has maintained (possibly divergent) planes *)
    mark : Bytes.t; (* scratch for boundary dedup in [make_group] *)
    ov : ov option array; (* per gate; populated per group, then cleared *)
    prog : int array; (* the current group's cone plane program *)
  }

  let ctx (cc : Compiled.t) =
    {
      cc;
      ones = Array.make (cc.Compiled.n_slots + 1) 0;
      zeros = Array.make (cc.Compiled.n_slots + 1) 0;
      lat1 = Array.make (max 1 cc.Compiled.n_ffs) 0;
      lat0 = Array.make (max 1 cc.Compiled.n_ffs) 0;
      flag = Bytes.make (cc.Compiled.n_slots + 1) '\000';
      mark = Bytes.make (cc.Compiled.n_slots + 1) '\000';
      ov = Array.make (max 1 cc.Compiled.n_gates) None;
      prog = Array.make (Compiled.program_words cc) 0;
    }

  type group = {
    w : int;
    full : int;
    stems0 : (int * int * int) array; (* level-0 stem slot, m1, m0 *)
    ff_ov : (int * int * int) list; (* position in cone_ffs, m1, m0 *)
    cone_gates : int array; (* ascending = levelized *)
    prog_len : int; (* words of [ctx.prog] holding the cone's program *)
    cone_ffs : int array;
    boundary : int array; (* out-of-cone slots the sweep/tick read *)
    obs : int array; (* observed slots with maintained planes *)
  }

  let make_group ctx ~obs_all faults =
    let cc = ctx.cc in
    let w = Array.length faults in
    assert (w > 0 && w <= max_group);
    let full = (1 lsl w) - 1 in
    let seeds = Array.map (fun f -> cc.Compiled.perm.(Fault.seed f)) faults in
    let cone = Compiled.cone_slots cc ~seeds in
    let gl = ref [] and fl = ref [] in
    Array.iter
      (fun s ->
        let k = Compiled.slot_gate cc s in
        if k >= 0 then gl := k :: !gl
        else if cc.Compiled.ff_of_slot.(s) >= 0 then
          fl := cc.Compiled.ff_of_slot.(s) :: !fl)
      cone;
    let cone_gates = Array.of_list (List.rev !gl) in
    let cone_ffs = Array.of_list (List.rev !fl) in
    let ff_pos k =
      let p = ref (-1) in
      Array.iteri (fun j f -> if f = k then p := j) cone_ffs;
      assert (!p >= 0);
      !p
    in
    let stems0 = Hashtbl.create 8 in
    let set_ov k f =
      let cur =
        match ctx.ov.(k) with
        | Some o -> o
        | None -> { stem_m1 = 0; stem_m0 = 0; branch = [] }
      in
      ctx.ov.(k) <- Some (f cur)
    in
    let ff_ov = ref [] in
    Array.iteri
      (fun lane (fault : Fault.t) ->
        let bit = 1 lsl lane in
        let m1 = if fault.Fault.stuck then bit else 0 in
        let m0 = if fault.Fault.stuck then 0 else bit in
        match fault.Fault.site with
        | Fault.Stem n ->
          let s = cc.Compiled.perm.(n) in
          let k = Compiled.slot_gate cc s in
          if k >= 0 then
            set_ov k (fun o ->
                { o with stem_m1 = o.stem_m1 lor m1;
                  stem_m0 = o.stem_m0 lor m0 })
          else begin
            let a1, a0 =
              match Hashtbl.find_opt stems0 s with
              | Some x -> x
              | None -> (0, 0)
            in
            Hashtbl.replace stems0 s (a1 lor m1, a0 lor m0)
          end
        | Fault.Branch { node; pin } ->
          let s = cc.Compiled.perm.(node) in
          let k = Compiled.slot_gate cc s in
          if k >= 0 then
            set_ov k (fun o ->
                { o with
                  branch =
                    (cc.Compiled.fanin_off.(k) + pin, m1, m0) :: o.branch })
          else ff_ov := (ff_pos cc.Compiled.ff_of_slot.(s), m1, m0) :: !ff_ov)
      faults;
    (* Maintained planes: cone gates (written by the sweep), cone
       flip-flops (latched; reset to all-X now) and level-0 stem slots
       (injected every cycle). *)
    Array.iter
      (fun k -> Bytes.set ctx.flag (Compiled.gate_slot cc k) '\001')
      cone_gates;
    Array.iter
      (fun f ->
        let s = cc.Compiled.ff_slot.(f) in
        Bytes.set ctx.flag s '\001';
        ctx.ones.(s) <- 0;
        ctx.zeros.(s) <- 0)
      cone_ffs;
    let stems0_l = ref [] in
    Hashtbl.iter
      (fun s (m1, m0) ->
        Bytes.set ctx.flag s '\001';
        if cc.Compiled.ff_of_slot.(s) < 0 then begin
          ctx.ones.(s) <- 0;
          ctx.zeros.(s) <- 0
        end;
        stems0_l := (s, m1, m0) :: !stems0_l)
      stems0;
    (* The read boundary: slots without maintained planes that the gate
       loop (side fanins of cone gates) or [tick] (unmaintained
       flip-flop data) will read. [sweep] materializes their broadcast
       good planes once per cycle so the hot loop runs on direct array
       indexing with no reader closure per fanin. *)
    let bl = ref [] in
    let add s =
      if Bytes.get ctx.flag s = '\000' && Bytes.get ctx.mark s = '\000'
      then begin
        Bytes.set ctx.mark s '\001';
        bl := s :: !bl
      end
    in
    Array.iter
      (fun k ->
        for i = cc.Compiled.fanin_off.(k) to cc.Compiled.fanin_off.(k + 1) - 1
        do
          add cc.Compiled.fanin.(i)
        done)
      cone_gates;
    Array.iter (fun k -> add cc.Compiled.ff_data.(k)) cone_ffs;
    let boundary = Array.of_list !bl in
    Array.iter (fun s -> Bytes.set ctx.mark s '\000') boundary;
    (* The cone's plane program, written over the previous group's in the
       context's buffer: override-carrying gates become markers that
       [sweep] evaluates on the boxed path. *)
    let prog_len =
      Array.fold_left
        (fun pos k ->
          match ctx.ov.(k) with
          | None -> Compiled.emit cc ctx.prog pos k
          | Some _ -> Compiled.emit_override ctx.prog pos k)
        0 cone_gates
    in
    let obs =
      Array.of_list
        (List.filter
           (fun o -> Bytes.get ctx.flag o <> '\000')
           (Array.to_list obs_all))
    in
    { w; full; stems0 = Array.of_list !stems0_l; ff_ov = !ff_ov;
      cone_gates; prog_len; cone_ffs; boundary; obs }

  let drop_group ctx g =
    Array.iter
      (fun k ->
        Bytes.set ctx.flag (Compiled.gate_slot ctx.cc k) '\000';
        ctx.ov.(k) <- None)
      g.cone_gates;
    Array.iter
      (fun f -> Bytes.set ctx.flag ctx.cc.Compiled.ff_slot.(f) '\000')
      g.cone_ffs;
    Array.iter (fun (s, _, _) -> Bytes.set ctx.flag s '\000') g.stems0

  let merge ~m1 ~m0 (b1, b0) =
    let keep = lnot (m1 lor m0) in
    ((b1 land keep) lor m1, (b0 land keep) lor m0)

  (* One cycle's cone sweep. [g1 slot]/[g0 slot] supply the broadcast
     ones/zeros planes of a slot with no maintained planes — the shared
     good trace row here, the packed good planes in the pattern path.
     They are only called on the precomputed read boundary, materialized
     into the plane arrays up front, so the cone's plane program
     ([make_group]) runs on direct array loads with no closure call per
     fanin. *)
  let sweep ctx g ~g1 ~g0 =
    let cc = ctx.cc in
    let ones = ctx.ones and zeros = ctx.zeros in
    let full = g.full in
    Array.iter
      (fun s ->
        ones.(s) <- g1 s;
        zeros.(s) <- g0 s)
      g.boundary;
    Array.iter
      (fun (s, m1, m0) ->
        (* A flip-flop stem keeps its latched planes as the base; any
           other level-0 stem reads the good value. *)
        let b1, b0 =
          if cc.Compiled.ff_of_slot.(s) >= 0 then (ones.(s), zeros.(s))
          else (g1 s, g0 s)
        in
        let keep = lnot (m1 lor m0) in
        ones.(s) <- (b1 land keep) lor m1;
        zeros.(s) <- (b0 land keep) lor m0)
      g.stems0;
    (* Rare: a gate carrying stem/branch overrides takes the boxed
       path. *)
    let override k =
      let o = Option.get (Array.unsafe_get ctx.ov k) in
      let fanin = cc.Compiled.fanin in
      let read i =
        let f = Array.unsafe_get fanin i in
        List.fold_left
          (fun acc (idx, m1, m0) ->
            if idx = i then merge ~m1 ~m0 acc else acc)
          (Array.unsafe_get ones f, Array.unsafe_get zeros f)
          o.branch
      in
      let v = Compiled.Planes.eval_gate_via cc ~full ~read k in
      let v1, v0 = merge ~m1:o.stem_m1 ~m0:o.stem_m0 v in
      let s = Compiled.gate_slot cc k in
      ones.(s) <- v1;
      zeros.(s) <- v0
    in
    Compiled.Planes.run ctx.prog ~len:g.prog_len ~full ~ones ~zeros ~override

  (* Clock the cone flip-flops: latch all, apply branch overrides, then
     publish simultaneously. Unmaintained data slots are in the read
     boundary, so this cycle's [sweep] already materialized their good
     planes — every read is a direct load. *)
  let tick ctx g =
    let cc = ctx.cc in
    let nf = Array.length g.cone_ffs in
    for j = 0 to nf - 1 do
      let k = g.cone_ffs.(j) in
      let d = cc.Compiled.ff_data.(k) in
      ctx.lat1.(j) <- ctx.ones.(d);
      ctx.lat0.(j) <- ctx.zeros.(d)
    done;
    List.iter
      (fun (j, m1, m0) ->
        let b1, b0 = merge ~m1 ~m0 (ctx.lat1.(j), ctx.lat0.(j)) in
        ctx.lat1.(j) <- b1;
        ctx.lat0.(j) <- b0)
      g.ff_ov;
    for j = 0 to nf - 1 do
      let s = cc.Compiled.ff_slot.(g.cone_ffs.(j)) in
      ctx.ones.(s) <- ctx.lat1.(j);
      ctx.zeros.(s) <- ctx.lat0.(j)
    done

  (* Lanes detected this cycle: good value binary and the lane's plane
     carries the complement. *)
  let observe_hits ctx g row ~alive =
    let hits = ref 0 in
    Array.iter
      (fun o ->
        let gcode = Compiled.get row o in
        if gcode = V3b.one then hits := !hits lor (ctx.zeros.(o) land alive)
        else if gcode = V3b.zero then
          hits := !hits lor (ctx.ones.(o) land alive))
      g.obs;
    !hits

  (* One group against one stimulus block; [record lane t] fires on the
     first detection of each lane. A group none of whose cone reaches an
     observed net is skipped outright. *)
  let run_group ctx ~obs_all faults rows record =
    let g = make_group ctx ~obs_all faults in
    if Array.length g.obs > 0 then begin
      let alive = ref g.full in
      let n = Array.length rows in
      let t = ref 0 in
      while !alive <> 0 && !t < n do
        let row = rows.(!t) in
        let full = g.full in
        let g1 s = if Compiled.get row s = V3b.one then full else 0
        and g0 s = if Compiled.get row s = V3b.zero then full else 0 in
        sweep ctx g ~g1 ~g0;
        let hits = observe_hits ctx g row ~alive:!alive in
        if hits <> 0 then begin
          for lane = 0 to g.w - 1 do
            if hits land (1 lsl lane) <> 0 then record lane !t
          done;
          alive := !alive land lnot hits
        end;
        if !alive <> 0 then tick ctx g;
        incr t
      done
    end;
    drop_group ctx g

  (* Fault order for grouping: by cone-seed slot (cone overlap within a
     group), ties by input index (determinism). *)
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

  let run_all ctx ~faults ~obs rows =
    let nf = Array.length faults in
    let result = Array.make nf None in
    if nf > 0 then begin
      let order = group_order ctx.cc faults (Array.init nf (fun i -> i)) in
      let pos = ref 0 in
      while !pos < nf do
        let w = min max_group (nf - !pos) in
        let chunk_ids = Array.sub order !pos w in
        let chunk = Array.map (fun i -> faults.(i)) chunk_ids in
        run_group ctx ~obs_all:obs chunk rows (fun lane t ->
            let i = chunk_ids.(lane) in
            if result.(i) = None then result.(i) <- Some t);
        pos := !pos + w
      done
    end;
    result

  (* [blocks] holds the good rows of each stimulus block. *)
  let run_dropping ctx ~faults ~obs blocks =
    let nf = Array.length faults in
    let result = Array.make nf None in
    let pending =
      ref (group_order ctx.cc faults (Array.init nf (fun i -> i)))
    in
    Array.iteri
      (fun block rows ->
        let np = Array.length !pending in
        if np > 0 then begin
          let pos = ref 0 in
          while !pos < np do
            let w = min max_group (np - !pos) in
            let chunk_ids = Array.sub !pending !pos w in
            let chunk = Array.map (fun i -> faults.(i)) chunk_ids in
            run_group ctx ~obs_all:obs chunk rows (fun lane t ->
                let i = chunk_ids.(lane) in
                if result.(i) = None then result.(i) <- Some (block, t));
            pos := !pos + w
          done;
          pending :=
            Array.of_seq
              (Seq.filter (fun i -> result.(i) = None) (Array.to_seq !pending))
        end)
      blocks;
    result

  (* --- pattern-parallel packing ---------------------------------------- *)

  (* For the alternating/converted sequence sets the lanes are stimulus
     blocks instead of faults: the good machine is packed once
     ([Compiled.Planes.trace_packed]) and each fault replays its cone
     over all blocks simultaneously. The dropping result is the
     lowest-index lane that detects, with its first cycle — identical to
     the serial block scan. *)

  let run_fault_packed ctx (packed : Compiled.Planes.packed) ~obs_all fault =
    let lanes = packed.Compiled.Planes.lanes in
    let col = packed.Compiled.Planes.col in
    let faults = Array.make lanes fault in
    let g = make_group ctx ~obs_all faults in
    let result = ref None in
    if Array.length g.obs > 0 then begin
      let alive = ref g.full in
      let t = ref 0 in
      while !alive <> 0 && !t < packed.Compiled.Planes.cycles do
        (* Lanes whose block ended can no longer detect. *)
        for b = 0 to lanes - 1 do
          if packed.Compiled.Planes.lane_len.(b) <= !t then
            alive := !alive land lnot (1 lsl b)
        done;
        if !alive <> 0 then begin
          let r1 = packed.Compiled.Planes.rows1.(!t) in
          let r0 = packed.Compiled.Planes.rows0.(!t) in
          let g1 s = r1.(col.(s)) and g0 s = r0.(col.(s)) in
          sweep ctx g ~g1 ~g0;
          (* Per-lane detection against the per-lane good planes. *)
          let hits = ref 0 in
          Array.iter
            (fun o ->
              let g1 = g1 o and g0 = g0 o in
              hits :=
                !hits
                lor ((g1 land ctx.zeros.(o)) lor (g0 land ctx.ones.(o)))
                    land !alive)
            g.obs;
          if !hits <> 0 then begin
            (* The lowest detecting lane bounds the answer; only lower
               lanes can still improve it. *)
            let rec low b = if !hits land (1 lsl b) <> 0 then b else low (b + 1) in
            let b = low 0 in
            (match !result with
             | Some (b', _) when b' <= b -> ()
             | Some _ | None -> result := Some (b, !t));
            let below = (1 lsl b) - 1 in
            alive := !alive land below
          end;
          if !alive <> 0 then tick ctx g
        end;
        incr t
      done
    end;
    drop_group ctx g;
    !result

  let run_dropping_packed ctx ~faults ~obs
      (chunks : (int * Compiled.Planes.packed) list) =
    let nf = Array.length faults in
    let result = Array.make nf None in
    let remaining = ref nf in
    List.iter
      (fun (base, packed) ->
        if !remaining > 0 then
          Array.iteri
            (fun i fault ->
              if result.(i) = None then
                match run_fault_packed ctx packed ~obs_all:obs fault with
                | Some (lane, t) ->
                  result.(i) <- Some (base + lane, t);
                  decr remaining
                | None -> ())
            faults)
      chunks;
    result

  (* The good-trace slots [run_fault_packed] reads for a fault whose cone
     seed is slot [seed], besides the observed ones: the read boundary of
     its cone, and a level-0 stem slot that is not a flip-flop (injected
     on top of the good value). Both depend on the seed alone — a stem
     and a branch fault with the same seed share the cone, and a level-0
     seed with fanin pins is a flip-flop. *)
  let read_set ctx fault =
    let g = make_group ctx ~obs_all:[||] [| fault |] in
    let stems =
      Array.of_list
        (List.filter_map
           (fun (s, _, _) ->
             if ctx.cc.Compiled.ff_of_slot.(s) < 0 then Some s else None)
           (Array.to_list g.stems0))
    in
    drop_group ctx g;
    Array.append g.boundary stems

  (* The columns a packed trace must record for [faults]: the union of
     their (memoized) read sets and the observed slots, ascending. *)
  let packed_cols (cc : Compiled.t) ~faults ~obs =
    let ctx = lazy (ctx cc) in
    let mark = Bytes.make (cc.Compiled.n_slots + 1) '\000' in
    let cols = ref [] in
    let add s =
      if Bytes.get mark s = '\000' then begin
        Bytes.set mark s '\001';
        cols := s :: !cols
      end
    in
    Array.iter add obs;
    Array.iter
      (fun f ->
        let seed = cc.Compiled.perm.(Fault.seed f) in
        Array.iter add
          (Cc.memo cc seed (fun _ -> read_set (Lazy.force ctx) f)))
      faults;
    let a = Array.of_list !cols in
    Array.sort Int.compare a;
    a

  (* Packed good traces per chunk of at most [max_group] blocks, each
     recording only the columns [faults] read. *)
  let pack_chunks (cc : Compiled.t) ~faults ~obs (stims : stimulus array) =
    let cols = packed_cols cc ~faults ~obs in
    let nb = Array.length stims in
    let chunks = ref [] in
    let base = ref 0 in
    while !base < nb do
      let w = min max_group (nb - !base) in
      chunks :=
        (!base, Compiled.Planes.trace_packed cc ~cols (Array.sub stims !base w))
        :: !chunks;
      base := !base + w
    done;
    List.rev !chunks

  (* Groups of at most [max_group] faults needed for [nf] faults. *)
  let n_groups nf = (nf + max_group - 1) / max_group

  (* The packed path pays one plane trace of every block up front and
     then replays every fault's own cone over [max_cycles] packed
     cycles of each chunk of [max_group] blocks; the fault-grouped path
     sweeps each ≤62-wide group's union cone over every block's cycles.
     Packing wins when the faults per block are few or their cones are
     small, whatever the length of the fault list — with wide cones (a
     62-fault group unioning to the whole netlist) the per-fault replay
     costs an order of magnitude more, so the choice is made on
     estimated plane-eval counts, not on fault count. The plane
     snapshots cost at most 16 bytes per slot per cycle (only the read
     columns are recorded) — past a memory bound on that the
     fault-grouped path is used regardless. *)
  let packed_worthwhile (cc : Compiled.t) ~faults ~stims =
    let nf = Array.length faults in
    let nb = Array.length stims in
    nb > 1
    && nf > 0
    &&
    let max_cycles =
      Array.fold_left (fun m s -> max m (Array.length s)) 0 stims
    in
    16 * (cc.Compiled.n_slots + 1) * max_cycles < 256_000_000
    &&
    let total_cycles =
      Array.fold_left (fun a s -> a + Array.length s) 0 stims
    in
    (* Count-only cone sizes ([Fault.cone_sizes] reuses one visit buffer
       and caches by seed): materializing each fault's sorted slot array
       here would cost more than the simulation the choice governs. *)
    let sum_cones =
      Array.fold_left ( + ) 0
        (Fault.cone_sizes cc.Compiled.circuit faults)
    in
    let groups = n_groups nf in
    (* Grouping by cone seed keeps the union of a group's cones within a
       small multiple (taken as 8) of a member cone, capped by the
       netlist itself. *)
    let union = min cc.Compiled.n_slots (8 * (sum_cones / nf)) in
    sum_cones * max_cycles * n_groups nb < groups * union * total_cycles

  (* The one packed-or-grouped switch of dropping simulation. It decides
     on the whole fault list, records the good traces the chosen path
     needs, and returns the runner for any subset of those faults. The
     traces are immutable, so pool domains may share the runner. *)
  let dropping cc ~faults ~obs ~stims =
    if packed_worthwhile cc ~faults ~stims then
      let chunks = pack_chunks cc ~faults ~obs stims in
      fun ctx faults -> run_dropping_packed ctx ~faults ~obs chunks
    else
      let blocks =
        Array.map
          (fun stim -> Compiled.trace cc (Compiled.compile_stim cc stim))
          stims
      in
      fun ctx faults -> run_dropping ctx ~faults ~obs blocks

  let packs c ~faults ~stimuli =
    packed_worthwhile (Cc.get c) ~faults ~stims:(Array.of_list stimuli)

  let detect_all c ~faults ~observe stim =
    let cc = Cc.get c in
    let cstim = Compiled.compile_stim cc stim in
    run_all (ctx cc) ~faults ~obs:(obs_slots cc observe)
      (Compiled.trace cc cstim)

  let detect_dropping_packed c ~faults ~observe ~stimuli =
    let cc = Cc.get c in
    let obs = obs_slots cc observe in
    run_dropping_packed (ctx cc) ~faults ~obs
      (pack_chunks cc ~faults ~obs (Array.of_list stimuli))

  let detect_dropping c ~faults ~observe ~stimuli =
    let cc = Cc.get c in
    dropping cc ~faults ~obs:(obs_slots cc observe)
      ~stims:(Array.of_list stimuli) (ctx cc) faults
end

module Engine = struct
  module Pool = Fst_exec.Pool
  module Sink = Fst_obs.Sink
  module Metrics = Fst_obs.Metrics

  let max_group = Parallel.max_group

  (* One branch when the sink is off; handle resolution and the clock
     read only happen on live sinks. A call is two stages — [trace]
     records the good machine, [simulate] runs the faults against it —
     and a live sink traces each as a child span of the call's. The inner
     simulation loops in [Parallel] are never touched. *)
  let observe_call (obs : Sink.t) name ~faults ~trace ~simulate =
    if not obs.Sink.enabled then simulate (trace ())
    else begin
      let m = obs.Sink.metrics in
      Metrics.Counter.incr (Metrics.counter m ("fsim." ^ name ^ ".calls"));
      Metrics.Counter.add
        (Metrics.counter m ("fsim." ^ name ^ ".faults"))
        (Array.length faults);
      let t0 = Fst_exec.Clock.now () in
      let r =
        Sink.span obs ~name:("fsim." ^ name) ~cat:"fsim" (fun () ->
            let good = Sink.span obs ~name:"fsim.trace" ~cat:"fsim" trace in
            Sink.span obs ~name:"fsim.simulate" ~cat:"fsim" (fun () ->
                simulate good))
      in
      Metrics.Histogram.observe
        (Metrics.histogram m ("fsim." ^ name ^ ".call_s"))
        (Fst_exec.Clock.now () -. t0);
      r
    end

  (* Pool tasks are whole 62-wide groups, so sharding never splits a
     group; about four shards per domain feeds the work-stealing queue
     without shrinking groups. Sized for the workers that will actually
     run (the pool clamps [jobs] to the core count) — over-sharding for
     phantom domains only multiplies underfilled tail groups and
     per-shard setup. *)
  let shards ~jobs faults =
    let nf = Array.length faults in
    let target = max 1 (min jobs (Pool.default_jobs ()) * 4) in
    let groups = Parallel.n_groups nf in
    let size = Parallel.max_group * max 1 ((groups + target - 1) / target) in
    let n = (nf + size - 1) / size in
    Array.init n (fun k ->
        Array.sub faults (k * size) (min size (nf - (k * size))))

  (* Runs [f] over the shards of [faults] on the pool, with one
     [Parallel] context per domain, and concatenates the per-shard
     results back into input order. The pool's minimum-work estimate is
     in gate evaluations: at most one whole-netlist sweep per group per
     cycle, so tiny workloads run in the caller even with [jobs > 1]. *)
  let run ~obs ~jobs (cc : Compiled.t) ~faults ~cycles f =
    let work =
      Parallel.n_groups (Array.length faults) * max 1 cc.Compiled.n_gates
      * cycles
    in
    Pool.map_array_init ~obs ~label:"fsim" ~chunk:1 ~work ~jobs
      ~init:(fun () -> Parallel.ctx cc)
      f (shards ~jobs faults)
    |> Array.to_list |> Array.concat

  (* Chaos hook at every engine entry: a [Raise] injection here exercises
     the callers' retry/containment paths; [Cancel] has no local meaning
     (detection has no token) and is ignored per the {!Fst_exec.Chaos}
     contract. A single atomic load when disarmed. *)
  let chaos_entry () =
    match Fst_exec.Chaos.point Fst_exec.Chaos.Engine with
    | `Ok | `Cancel -> ()

  (* An empty fault list records no trace and simulates nothing. *)
  let detect_all ?(obs = Sink.null) ?(jobs = 1) c ~faults ~observe stim =
    chaos_entry ();
    let jobs = max 1 jobs in
    observe_call obs "detect_all" ~faults
      ~trace:(fun () ->
        if Array.length faults = 0 then None
        else
          let cc = Cc.get c in
          Some (cc, Compiled.trace cc (Compiled.compile_stim cc stim)))
      ~simulate:(function
        | None -> [||]
        | Some (cc, rows) ->
          let obs_s = obs_slots cc observe in
          run ~obs ~jobs cc ~faults ~cycles:(Array.length stim)
            (fun ctx fs -> Parallel.run_all ctx ~faults:fs ~obs:obs_s rows))

  let detect_dropping ?(obs = Sink.null) ?(jobs = 1) c ~faults ~observe
      ~stimuli =
    chaos_entry ();
    let jobs = max 1 jobs in
    let stims = Array.of_list stimuli in
    observe_call obs "detect_dropping" ~faults
      ~trace:(fun () ->
        if Array.length faults = 0 then None
        else
          let cc = Cc.get c in
          let obs = obs_slots cc observe in
          Some (cc, Parallel.dropping cc ~faults ~obs ~stims))
      ~simulate:(function
        | None -> [||]
        | Some (cc, runner) ->
          run ~obs ~jobs cc ~faults
            ~cycles:(Array.fold_left (fun a s -> a + Array.length s) 0 stims)
            runner)
end
