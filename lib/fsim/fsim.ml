open Fst_logic
open Fst_netlist
open Fst_sim
open Fst_fault

type stimulus = Sim.stimulus

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
   immutable once frozen). The mutex makes the cache safe to hit from
   pool domains; the compiled form itself is immutable and shared
   read-only. *)
module Cc = struct
  let lock = Mutex.create ()
  let cache : (Circuit.t * Compiled.t) option ref = ref None

  let get c =
    Mutex.lock lock;
    let cc =
      match !cache with
      | Some (c', cc) when c' == c -> cc
      | Some _ | None ->
        let cc = Compiled.of_circuit c in
        cache := Some (c, cc);
        cc
    in
    Mutex.unlock lock;
    cc
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
    }

  type group = {
    w : int;
    full : int;
    stems0 : (int * int * int) array; (* level-0 stem slot, m1, m0 *)
    ff_ov : (int * int * int) list; (* position in cone_ffs, m1, m0 *)
    cone_gates : int array; (* ascending = levelized *)
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
    let obs =
      Array.of_list
        (List.filter
           (fun o -> Bytes.get ctx.flag o <> '\000')
           (Array.to_list obs_all))
    in
    { w; full; stems0 = Array.of_list !stems0_l; ff_ov = !ff_ov;
      cone_gates; cone_ffs; boundary; obs }

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
     into the plane arrays up front; the gate loop itself runs on direct
     array indexing with no closure call per fanin. *)
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
    let res1 = ref 0 and res0 = ref 0 in
    let ng = Array.length g.cone_gates in
    for j = 0 to ng - 1 do
      let k = Array.unsafe_get g.cone_gates j in
      (match Array.unsafe_get ctx.ov k with
       | None ->
         Compiled.Planes.eval_gate_into cc ~full ~ones ~zeros k ~res1 ~res0
       | Some o ->
         (* Rare: a gate carrying stem/branch overrides takes the boxed
            path. *)
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
         res1 := v1;
         res0 := v0);
      let s = cc.Compiled.n_level0 + k in
      Array.unsafe_set ones s !res1;
      Array.unsafe_set zeros s !res0
    done

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

  let run_dropping ctx ~faults ~obs blocks =
    let nf = Array.length faults in
    let result = Array.make nf None in
    let pending =
      ref (group_order ctx.cc faults (Array.init nf (fun i -> i)))
    in
    Array.iteri
      (fun block (_cstim, rows) ->
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
          let g1 s = Array.unsafe_get r1 s
          and g0 s = Array.unsafe_get r0 s in
          sweep ctx g ~g1 ~g0;
          (* Per-lane detection against the per-lane good planes. *)
          let hits = ref 0 in
          Array.iter
            (fun o ->
              let g1 = r1.(o) and g0 = r0.(o) in
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

  (* Packed good traces per chunk of at most [max_group] blocks. *)
  let pack_chunks (cc : Compiled.t) (stims : stimulus array) =
    let nb = Array.length stims in
    let chunks = ref [] in
    let base = ref 0 in
    while !base < nb do
      let w = min max_group (nb - !base) in
      chunks :=
        (!base, Compiled.Planes.trace_packed cc (Array.sub stims !base w))
        :: !chunks;
      base := !base + w
    done;
    List.rev !chunks

  (* The packed path pays one plane trace of every block up front and
     then replays every fault's own cone over [max_cycles] packed
     cycles; the fault-grouped path sweeps each ≤62-wide group's union
     cone over every block's cycles. Packing wins when the faults are
     too few to fill groups or their cones are small — with wide cones
     (a 62-fault group unioning to the whole netlist) the per-fault
     replay costs an order of magnitude more, so the choice is made on
     the modeled plane-eval counts, not on fault count alone. The plane
     snapshots also cost 16 bytes per slot per cycle — past a memory
     bound the fault-grouped path is used regardless. *)
  let packed_worthwhile (cc : Compiled.t) ~faults ~stims =
    let nf = Array.length faults in
    let nb = Array.length stims in
    nb > 1
    && nf > 0
    && nf <= 2 * max_group
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
    let groups = (nf + max_group - 1) / max_group in
    (* The union of a seed-sorted group's cones stays within a small
       multiple of a member cone (same inflation factor as the {!Engine} cost
       model), capped by the netlist itself. *)
    let union = min cc.Compiled.n_slots (8 * (sum_cones / nf)) in
    sum_cones * max_cycles < groups * union * total_cycles

  let detect_all c ~faults ~observe stim =
    let cc = Cc.get c in
    let cstim = Compiled.compile_stim cc stim in
    run_all (ctx cc) ~faults ~obs:(obs_slots cc observe)
      (Compiled.trace cc cstim)

  let detect_dropping_packed c ~faults ~observe ~stimuli =
    let cc = Cc.get c in
    let stims = Array.of_list stimuli in
    run_dropping_packed (ctx cc) ~faults ~obs:(obs_slots cc observe)
      (pack_chunks cc stims)

  let detect_dropping c ~faults ~observe ~stimuli =
    let cc = Cc.get c in
    let stims = Array.of_list stimuli in
    if packed_worthwhile cc ~faults ~stims then
      run_dropping_packed (ctx cc) ~faults ~obs:(obs_slots cc observe)
        (pack_chunks cc stims)
    else
      let blocks =
        Array.map
          (fun stim ->
            let cstim = Compiled.compile_stim cc stim in
            (cstim, Compiled.trace cc cstim))
          stims
      in
      run_dropping (ctx cc) ~faults ~obs:(obs_slots cc observe) blocks
end

module Event = struct
  (* Event-driven single-fault simulation as a sparse overlay on the
     shared good trace: only slots whose value diverges from the good
     machine are stored, and only gates reached by a divergence event are
     evaluated. Cost is proportional to the fault's active cone, not the
     netlist. *)

  type ctx = {
    cc : Compiled.t;
    div : Bytes.t; (* per slot: value currently diverges from the row *)
    bad : Bytes.t; (* faulty code where [div] is set *)
    queued : Bytes.t; (* per gate: scheduled this cycle *)
    pending : int list array; (* scheduled gate indices, by level *)
    ff_queued : Bytes.t; (* per flip-flop: clock candidate *)
  }

  let create_ctx (cc : Compiled.t) =
    {
      cc;
      div = Bytes.make (cc.Compiled.n_slots + 1) '\000';
      bad = Bytes.make (cc.Compiled.n_slots + 1) '\000';
      queued = Bytes.make (max 1 cc.Compiled.n_gates) '\000';
      pending = Array.make (cc.Compiled.depth + 2) [];
      ff_queued = Bytes.make (max 1 cc.Compiled.n_ffs) '\000';
    }

  type stats = { mutable events : int; mutable active : int;
                 mutable reconv : int }

  (* Runs one fault over the good trace [rows]; returns its first
     detection cycle and accumulates event/activity counts into [st]. *)
  let detect_rows ctx ~fault ~obs rows st =
    let cc = ctx.cc in
    let stem_slot, stem_code, bgate, bpool, bff, bcode =
      match (fault : Fault.t) with
      | { Fault.site = Fault.Stem n; stuck } ->
        ( cc.Compiled.perm.(n),
          (if stuck then V3b.one else V3b.zero), -1, -1, -1, 0 )
      | { Fault.site = Fault.Branch { node; pin }; stuck } ->
        let s = cc.Compiled.perm.(node) in
        let code = if stuck then V3b.one else V3b.zero in
        let k = Compiled.slot_gate cc s in
        if k >= 0 then (-1, 0, k, cc.Compiled.fanin_off.(k) + pin, -1, code)
        else (-1, 0, -1, -1, cc.Compiled.ff_of_slot.(s), code)
    in
    let { div; bad; queued; pending; ff_queued; _ } = ctx in
    let fanin = cc.Compiled.fanin in
    let n_cycles = Array.length rows in
    let row = ref rows.(0) in
    (* The faulty value of slot [o] (no pin override). *)
    let raw o =
      if o = stem_slot then stem_code
      else if Bytes.unsafe_get div o <> '\000' then
        Char.code (Bytes.unsafe_get bad o)
      else Compiled.get !row o
    in
    (* Fanin reader; pool indices are gate-unique, so the single branch
       override test covers the one faulted pin. *)
    let read i =
      if i = bpool then bcode else raw (Array.unsafe_get fanin i)
    in
    let touched = ref [] in (* combinational slots marked [div] this cycle *)
    let div_ffs = ref [] in (* FF output slots divergent entering this cycle *)
    let ff_cand = ref [] in (* flip-flop indices whose data may diverge *)
    let max_lev = ref 0 in
    let schedule s' =
      let k = Compiled.slot_gate cc s' in
      if k >= 0 then begin
        if Bytes.get queued k = '\000' && s' <> stem_slot then begin
          Bytes.set queued k '\001';
          let l = cc.Compiled.slot_level.(s') in
          pending.(l) <- k :: pending.(l);
          if l > !max_lev then max_lev := l
        end
      end
      else
        let f = cc.Compiled.ff_of_slot.(s') in
        if f >= 0 && Bytes.get ff_queued f = '\000' then begin
          Bytes.set ff_queued f '\001';
          ff_cand := f :: !ff_cand
        end
    in
    let announce s =
      for i = cc.Compiled.fanout_off.(s) to cc.Compiled.fanout_off.(s + 1) - 1
      do
        schedule cc.Compiled.fanout.(i)
      done
    in
    let result = ref None in
    let t = ref 0 in
    while !result = None && !t < n_cycles do
      row := rows.(!t);
      let stem_live =
        stem_slot >= 0 && stem_code <> Compiled.get !row stem_slot
      in
      List.iter announce !div_ffs;
      if stem_live then announce stem_slot;
      if bgate >= 0 then schedule (Compiled.gate_slot cc bgate);
      (if bff >= 0 && Bytes.get ff_queued bff = '\000' then begin
         Bytes.set ff_queued bff '\001';
         ff_cand := bff :: !ff_cand
       end);
      (* Settle: levels strictly ascend (every gate fanin is lower-level),
         so one pass evaluates each scheduled gate exactly once. *)
      let lev = ref 1 in
      while !lev <= !max_lev do
        let rec drain = function
          | [] -> ()
          | k :: rest ->
            Bytes.set queued k '\000';
            st.events <- st.events + 1;
            let nv = Compiled.eval_gate_via cc ~read k in
            let s = Compiled.gate_slot cc k in
            if nv <> Compiled.get !row s then begin
              Bytes.set bad s (Char.chr nv);
              if Bytes.get div s = '\000' then begin
                Bytes.set div s '\001';
                touched := s :: !touched
              end;
              announce s
            end;
            drain rest
        in
        let l = pending.(!lev) in
        pending.(!lev) <- [];
        drain l;
        incr lev
      done;
      max_lev := 0;
      (* Observation: only a divergent slot can complement-detect. *)
      if stem_live || !touched <> [] || !div_ffs <> [] then begin
        st.active <- st.active + 1;
        let no = Array.length obs in
        let k = ref 0 in
        while !result = None && !k < no do
          let o = Array.unsafe_get obs !k in
          if V3b.detects ~good:(Compiled.get !row o) ~faulty:(raw o) then
            result := Some !t;
          incr k
        done
      end;
      if !result = None then begin
        (* Clock: recompute flip-flop divergence for the next cycle. The
           candidates are every currently divergent flip-flop, every
           flip-flop whose data slot was announced during settle, and the
           branch-faulted flip-flop (its data pin is permanently
           overridden). A clamped stem flip-flop carries no state. *)
        List.iter
          (fun s ->
            let f = cc.Compiled.ff_of_slot.(s) in
            if Bytes.get ff_queued f = '\000' then begin
              Bytes.set ff_queued f '\001';
              ff_cand := f :: !ff_cand
            end)
          !div_ffs;
        (if bff >= 0 && Bytes.get ff_queued bff = '\000' then begin
           Bytes.set ff_queued bff '\001';
           ff_cand := bff :: !ff_cand
         end);
        let next = ref [] in
        List.iter
          (fun f ->
            Bytes.set ff_queued f '\000';
            let s = cc.Compiled.ff_slot.(f) in
            if s <> stem_slot then begin
              let d = cc.Compiled.ff_data.(f) in
              let bv = if f = bff then bcode else raw d in
              if bv = Compiled.get !row d then Bytes.set div s '\000'
              else begin
                Bytes.set div s '\001';
                Bytes.set bad s (Char.chr bv);
                next := s :: !next
              end
            end)
          !ff_cand;
        ff_cand := [];
        (if (stem_live || !touched <> [] || !div_ffs <> []) && !next = []
         then st.reconv <- st.reconv + 1);
        div_ffs := !next;
        List.iter (fun s -> Bytes.set div s '\000') !touched;
        touched := [];
        incr t
      end
    done;
    (* Scrub scratch state for the next fault (pending/queued are already
       clean: settle always completes before observation). *)
    List.iter (fun s -> Bytes.set div s '\000') !touched;
    List.iter (fun s -> Bytes.set div s '\000') !div_ffs;
    List.iter (fun f -> Bytes.set ff_queued f '\000') !ff_cand;
    !result

  let run_all ?on_fault ctx ~faults ~obs rows =
    Array.map
      (fun fault ->
        let st = { events = 0; active = 0; reconv = 0 } in
        let r = detect_rows ctx ~fault ~obs rows st in
        (match on_fault with
         | Some f -> f ~events:st.events ~active:st.active ~reconv:st.reconv
         | None -> ());
        r)
      faults

  let run_dropping ?on_fault ctx ~faults ~obs blocks =
    let nf = Array.length faults in
    let result = Array.make nf None in
    let pending = Array.init nf (fun i -> i) in
    let n_pending = ref nf in
    Array.iteri
      (fun block (_cstim, rows) ->
        if !n_pending > 0 then begin
          let kept = ref 0 in
          for k = 0 to !n_pending - 1 do
            let i = pending.(k) in
            let st = { events = 0; active = 0; reconv = 0 } in
            (match detect_rows ctx ~fault:faults.(i) ~obs rows st with
             | Some t -> result.(i) <- Some (block, t)
             | None ->
               pending.(!kept) <- i;
               incr kept);
            match on_fault with
            | Some f ->
              f ~events:st.events ~active:st.active ~reconv:st.reconv
            | None -> ()
          done;
          n_pending := !kept
        end)
      blocks;
    result

  let detect_all c ~faults ~observe stim =
    let cc = Cc.get c in
    let cstim = Compiled.compile_stim cc stim in
    run_all (create_ctx cc) ~faults ~obs:(obs_slots cc observe)
      (Compiled.trace cc cstim)

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
    run_dropping (create_ctx cc) ~faults ~obs:(obs_slots cc observe) blocks
end

type backend = [ `Serial | `Parallel | `Event ]

module Engine = struct
  module Pool = Fst_exec.Pool
  module Sink = Fst_obs.Sink
  module Metrics = Fst_obs.Metrics

  (* One branch when the sink is off; handle resolution and the clock
     read only happen on live sinks. The inner simulation loops in
     [Serial]/[Parallel]/[Event] are never touched. *)
  let observe_call (obs : Sink.t) name ~faults f =
    if not obs.Sink.enabled then f ()
    else begin
      let m = obs.Sink.metrics in
      Metrics.Counter.incr (Metrics.counter m ("fsim." ^ name ^ ".calls"));
      Metrics.Counter.add
        (Metrics.counter m ("fsim." ^ name ^ ".faults"))
        (Array.length faults);
      let t0 = Fst_exec.Clock.now () in
      let r = Sink.span obs ~name:("fsim." ^ name) ~cat:"fsim" f in
      Metrics.Histogram.observe
        (Metrics.histogram m ("fsim." ^ name ^ ".call_s"))
        (Fst_exec.Clock.now () -. t0);
      r
    end

  (* Per-(fault, block) event counts and reconvergence rates (reconverged /
     active cycles), observed only on live sinks. The histograms are
     domain-safe, so the hook may run inside pool tasks. *)
  let event_stats (obs : Sink.t) =
    if not obs.Sink.enabled then None
    else begin
      let m = obs.Sink.metrics in
      let h_events = Metrics.histogram m "fsim.event.events" in
      let h_reconv = Metrics.histogram m "fsim.event.reconv_rate" in
      Some
        (fun ~events ~active ~reconv ->
          Metrics.Histogram.observe h_events (float_of_int events);
          if active > 0 then
            Metrics.Histogram.observe h_reconv
              (float_of_int reconv /. float_of_int active))
    end

  (* {2 The cost model}

     All costs are in {e units} of one scalar compiled gate evaluation.
     Per fault over [cycles] simulated cycles:

     - serial: the whole netlist settles every cycle against the shared
       good rows — [n_gates * cycles].
     - event: only the active cone is evaluated; the static cone
       over-approximates it and events are cheaper than a full sweep's
       amortized gate (no stores outside the overlay), hence the [<1]
       constant — but every cycle a fault stays live also pays a fixed
       bookkeeping floor (observation scan, queue upkeep) that dominates
       for tiny cones — [(c_event_cycle + c_event * cone) * cycles].
     - parallel: a 62-lane group sweeps the {e union} cone of its
       members once per cycle; a plane gate eval costs several scalar
       ones (override lookups, flag checks, two-rail ops), and grouping
       by seed slot keeps the union within a small multiple of a member
       cone — per group
       [c_plane * min (n_gates, union_inflation * cone) * cycles].

     The constants were calibrated against [bench/main.exe fsim] runs on
     the ISCAS'89 suite (on s38417: parallel measured ~5x serial per
     fault => c_plane ~ 62/5; event ~9x => the per-cycle floor): they
     only need to be right within a factor of ~2 for the partition (and
     the serial guard) to pick the winner. *)

  let c_event = 0.35
  let c_event_cycle = 30.0
  let c_plane = 12.0
  let union_inflation = 8.0

  (* A fault whose static cone is at most this many nets goes to the
     event back-end; larger cones amortize better in a 62-wide group. *)
  let auto_cone_cap (c : Circuit.t) = max 8 (Circuit.num_nets c / 16)

  type decision = {
    backend : backend;
    indices : int array; (* positions in the input fault array *)
    units : int; (* modeled cost of running [indices] on [backend] *)
  }

  let serial_units (cc : Compiled.t) ~cycles n =
    n * max 1 cc.Compiled.n_gates * cycles

  let event_units ~cycles sizes indices =
    let u = ref 0.0 in
    Array.iter
      (fun i ->
        u :=
          !u
          +. ((c_event_cycle +. (c_event *. float_of_int sizes.(i)))
              *. float_of_int cycles))
      indices;
    int_of_float !u

  (* Group-based: a group sweeps its union cone once per cycle whether it
     carries 2 lanes or 62, so the cost is per group, not per fault —
     that is exactly what makes underfilled groups lose to serial. *)
  let parallel_units (cc : Compiled.t) ~cycles sizes indices =
    let n = Array.length indices in
    if n = 0 then 0
    else begin
      let ng = max 1 cc.Compiled.n_gates in
      let groups = (n + Parallel.max_group - 1) / Parallel.max_group in
      let mean =
        Array.fold_left (fun a i -> a +. float_of_int sizes.(i)) 0.0 indices
        /. float_of_int n
      in
      let union = Float.min (float_of_int ng) (union_inflation *. mean) in
      int_of_float
        (c_plane *. union *. float_of_int cycles *. float_of_int groups)
    end

  (* [plan c ~faults ~cycles] is the decision list: faults are
     split by capped cone size (small cones -> event-driven, large ->
     bit-parallel), then each partition is guarded — if its modeled cost
     exceeds running the same faults serially, it falls back to [`Serial].
     The union of [indices] over all decisions is exactly the input
     index range, and every decision's [units] is by construction at most
     the serial cost of its faults. *)
  let plan c ~faults ~cycles =
    let cc = Cc.get c in
    let cap = auto_cone_cap c in
    let sizes = Fault.cone_sizes ~cap c faults in
    let small = ref [] and large = ref [] in
    Array.iteri
      (fun i s -> if s <= cap then small := i :: !small
        else large := i :: !large)
      sizes;
    let small = Array.of_list (List.rev !small) in
    let large = Array.of_list (List.rev !large) in
    let guard backend units indices =
      if Array.length indices = 0 then None
      else
        let s = serial_units cc ~cycles (Array.length indices) in
        if units > s then Some { backend = `Serial; indices; units = s }
        else Some { backend; indices; units }
    in
    List.filter_map Fun.id
      [
        guard `Event (event_units ~cycles sizes small) small;
        guard `Parallel (parallel_units cc ~cycles sizes large) large;
      ]

  (* Shard size per pool task: whole 62-wide groups for the bit-parallel
     back-end (so sharding never splits a group), single faults grouped
     for the per-fault back-ends; about four shards per domain feeds the
     work-stealing queue without shrinking groups. Sized for the workers
     that will actually run (the pool clamps [jobs] to the core count) —
     over-sharding for phantom domains only multiplies underfilled tail
     groups and per-shard setup. *)
  let shard_size ~backend ~jobs nf =
    let target = max 1 (min jobs (Pool.default_jobs ()) * 4) in
    match backend with
    | `Serial | `Event -> max 1 ((nf + target - 1) / target)
    | `Parallel ->
      let groups = (nf + Parallel.max_group - 1) / Parallel.max_group in
      Parallel.max_group * max 1 ((groups + target - 1) / target)

  let shards ~backend ~jobs faults =
    let nf = Array.length faults in
    let size = shard_size ~backend ~jobs nf in
    let n = (nf + size - 1) / size in
    Array.init n (fun k ->
        Array.sub faults (k * size) (min size (nf - (k * size))))

  let total_cycles_all stim = Array.length stim

  let total_cycles_dropping stimuli =
    List.fold_left (fun acc s -> acc + Array.length s) 0 stimuli

  (* Dispatch [faults] to [backend] across the pool: good trace computed
     once on the caller and shared read-only; per-domain engine contexts
     created lazily and reused across that domain's shards. *)
  let run_detect_all ~obs ~backend ~jobs ~work c ~faults ~observe stim =
    let cc = Cc.get c in
    let cstim = Compiled.compile_stim cc stim in
    let rows = Compiled.trace cc cstim in
    let obs_s = obs_slots cc observe in
    let parts = shards ~backend ~jobs faults in
    let run =
      match backend with
      | `Serial ->
        Pool.map_array_init ~obs ~label:"fsim" ~chunk:1 ~work ~jobs
          ~init:(fun () -> Serial.ctx cc)
          (fun ctx fs -> Serial.run_all ctx ~faults:fs ~obs:obs_s rows cstim)
      | `Parallel ->
        Pool.map_array_init ~obs ~label:"fsim" ~chunk:1 ~work ~jobs
          ~init:(fun () -> Parallel.ctx cc)
          (fun ctx fs -> Parallel.run_all ctx ~faults:fs ~obs:obs_s rows)
      | `Event ->
        let on_fault = event_stats obs in
        Pool.map_array_init ~obs ~label:"fsim" ~chunk:1 ~work ~jobs
          ~init:(fun () -> Event.create_ctx cc)
          (fun ctx fs -> Event.run_all ?on_fault ctx ~faults:fs ~obs:obs_s
              rows)
    in
    run parts |> Array.to_list |> Array.concat

  let run_detect_dropping ~obs ~backend ~jobs ~work c ~faults ~observe
      ~stimuli =
    let cc = Cc.get c in
    let obs_s = obs_slots cc observe in
    let stims = Array.of_list stimuli in
    let parts = shards ~backend ~jobs faults in
    let blocks () =
      Array.map
        (fun stim ->
          let cstim = Compiled.compile_stim cc stim in
          (cstim, Compiled.trace cc cstim))
        stims
    in
    let run =
      match backend with
      | `Serial ->
        let blocks = blocks () in
        Pool.map_array_init ~obs ~label:"fsim" ~chunk:1 ~work ~jobs
          ~init:(fun () -> Serial.ctx cc)
          (fun ctx fs -> Serial.run_dropping ctx ~faults:fs ~obs:obs_s blocks)
      | `Parallel ->
        if Parallel.packed_worthwhile cc ~faults ~stims then begin
          let chunks = Parallel.pack_chunks cc stims in
          Pool.map_array_init ~obs ~label:"fsim" ~chunk:1 ~work ~jobs
            ~init:(fun () -> Parallel.ctx cc)
            (fun ctx fs ->
              Parallel.run_dropping_packed ctx ~faults:fs ~obs:obs_s chunks)
        end
        else begin
          let blocks = blocks () in
          Pool.map_array_init ~obs ~label:"fsim" ~chunk:1 ~work ~jobs
            ~init:(fun () -> Parallel.ctx cc)
            (fun ctx fs ->
              Parallel.run_dropping ctx ~faults:fs ~obs:obs_s blocks)
        end
      | `Event ->
        let blocks = blocks () in
        let on_fault = event_stats obs in
        Pool.map_array_init ~obs ~label:"fsim" ~chunk:1 ~work ~jobs
          ~init:(fun () -> Event.create_ctx cc)
          (fun ctx fs ->
            Event.run_dropping ?on_fault ctx ~faults:fs ~obs:obs_s blocks)
    in
    run parts |> Array.to_list |> Array.concat

  (* Runs the planned decisions through [run] and merges the
     results back into input order. *)
  let run_plan run c ~faults ~cycles =
    match plan c ~faults ~cycles with
    | [ d ] -> run d.backend d.units faults
    | ds ->
      let out = Array.make (Array.length faults) None in
      List.iter
        (fun d ->
          let fs = Array.map (fun i -> faults.(i)) d.indices in
          let rs = run d.backend d.units fs in
          Array.iteri (fun k i -> out.(i) <- rs.(k)) d.indices)
        ds;
      out

  (* Chaos hook at every engine entry: a [Raise] injection here exercises
     the callers' retry/containment paths; [Cancel] has no local meaning
     (detection has no token) and is ignored per the {!Fst_exec.Chaos}
     contract. A single atomic load when disarmed. *)
  let chaos_entry () =
    match Fst_exec.Chaos.point Fst_exec.Chaos.Engine with
    | `Ok | `Cancel -> ()

  let detect_all ?(obs = Sink.null) ?(jobs = 1) c ~faults ~observe stim =
    chaos_entry ();
    let jobs = max 1 jobs in
    observe_call obs "detect_all" ~faults (fun () ->
        if Array.length faults = 0 then [||]
        else
          run_plan
            (fun backend work fs ->
              run_detect_all ~obs ~backend ~jobs ~work c ~faults:fs ~observe
                stim)
            c ~faults ~cycles:(total_cycles_all stim))

  let detect_dropping ?(obs = Sink.null) ?(jobs = 1) c ~faults ~observe
      ~stimuli =
    chaos_entry ();
    let jobs = max 1 jobs in
    observe_call obs "detect_dropping" ~faults (fun () ->
        if Array.length faults = 0 then [||]
        else
          run_plan
            (fun backend work fs ->
              run_detect_dropping ~obs ~backend ~jobs ~work c ~faults:fs
                ~observe ~stimuli)
            c ~faults ~cycles:(total_cycles_dropping stimuli))
end
