module Counter = struct
  type c = int Atomic.t

  let incr c = Atomic.incr c
  let add c n = ignore (Atomic.fetch_and_add c n)
  let value c = Atomic.get c
end

module Gauge = struct
  (* A boxed float behind an Atomic: the load/store is a pointer, so
     reads are torn-free. (Not float bits in an Atomic int: OCaml ints
     are 63-bit, which silently drops the float's sign bit.) *)
  type g = float Atomic.t

  let set g v = Atomic.set g v
  let value g = Atomic.get g
end

module Fcounter = struct
  type f = float Atomic.t

  (* The CAS hands back the exact box it read, so physical-equality
     compare_and_set implements the retry loop correctly. *)
  let add f v =
    let rec go () =
      let old = Atomic.get f in
      if not (Atomic.compare_and_set f old (old +. v)) then go ()
    in
    go ()

  let value f = Atomic.get f
end

module Histogram = struct
  (* Power-of-two buckets: bucket [i] holds values whose frexp exponent
     is [i + offset], clamped. Bucket upper bound = 2^(i + lo). Only
     integer counts and min/max are kept, so merges commute exactly. *)
  let lo = -20 (* ~1e-6 *)
  let hi = 31 (* ~2e9 *)
  let nbuckets = hi - lo + 1

  type h = {
    buckets : int Atomic.t array;
    count : int Atomic.t;
    minb : float Atomic.t;
    maxb : float Atomic.t;
    sumb : float Atomic.t;
        (* CAS-looped float sum, like Fcounter: not bit-deterministic
           under contention — exposed for OpenMetrics _sum, never for
           anything a test compares bit-for-bit. *)
  }

  let create () =
    {
      buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
      count = Atomic.make 0;
      minb = Atomic.make infinity;
      maxb = Atomic.make neg_infinity;
      sumb = Atomic.make 0.0;
    }

  let bucket_of v =
    if v <= 0.0 then 0
    else
      let _, e = Float.frexp v in
      let i = e - lo in
      if i < 0 then 0 else if i >= nbuckets then nbuckets - 1 else i

  let cas_extreme cell better v =
    let rec go () =
      let old = Atomic.get cell in
      if better v old then
        if Atomic.compare_and_set cell old v then () else go ()
    in
    go ()

  let cas_add cell v =
    let rec go () =
      let old = Atomic.get cell in
      if not (Atomic.compare_and_set cell old (old +. v)) then go ()
    in
    go ()

  let observe h v =
    Atomic.incr h.buckets.(bucket_of v);
    Atomic.incr h.count;
    cas_add h.sumb v;
    cas_extreme h.minb (fun a b -> a < b) v;
    cas_extreme h.maxb (fun a b -> a > b) v

  let merge_into ~dst ~src =
    Array.iteri
      (fun i b ->
        let n = Atomic.get b in
        if n > 0 then ignore (Atomic.fetch_and_add dst.buckets.(i) n))
      src.buckets;
    let n = Atomic.get src.count in
    if n > 0 then ignore (Atomic.fetch_and_add dst.count n);
    cas_add dst.sumb (Atomic.get src.sumb);
    cas_extreme dst.minb (fun a b -> a < b) (Atomic.get src.minb);
    cas_extreme dst.maxb (fun a b -> a > b) (Atomic.get src.maxb)

  let count h = Atomic.get h.count
  let sum h = Atomic.get h.sumb

  let buckets h =
    let out = ref [] in
    for i = nbuckets - 1 downto 0 do
      let n = Atomic.get h.buckets.(i) in
      if n > 0 then out := (Float.ldexp 1.0 (i + lo), n) :: !out
    done;
    !out

  let min_value h = Atomic.get h.minb
  let max_value h = Atomic.get h.maxb

  (* Quantile estimate from the log-scale buckets: the upper bound of
     the bucket where the cumulative count first reaches [ceil (q * n)].
     Since bucket [i] covers (2^(i+lo-1), 2^(i+lo)], the estimate is
     within one power-of-two bucket above the exact sample quantile
     (the qcheck property in test_analyze.ml pins this down). *)
  let quantile h q =
    let n = Atomic.get h.count in
    if n = 0 then Float.nan
    else begin
      let rank =
        let r = int_of_float (Float.ceil (q *. float_of_int n)) in
        if r < 1 then 1 else if r > n then n else r
      in
      let acc = ref 0 and found = ref Float.nan in
      (try
         for i = 0 to nbuckets - 1 do
           acc := !acc + Atomic.get h.buckets.(i);
           if !acc >= rank then begin
             found := Float.ldexp 1.0 (i + lo);
             raise Exit
           end
         done
       with Exit -> ());
      !found
    end
end

type metric =
  | C of Counter.c
  | G of Gauge.g
  | F of Fcounter.f
  | H of Histogram.h

type t = { mutable items : (string * metric) list; lock : Mutex.t }

let create () = { items = []; lock = Mutex.create () }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let get_or_make t name make unpack =
  with_lock t (fun () ->
      match List.assoc_opt name t.items with
      | Some m -> unpack m
      | None ->
          let m = make () in
          t.items <- (name, m) :: t.items;
          unpack m)

let wrong name = invalid_arg ("Fst_obs.Metrics: " ^ name ^ " has another type")

let counter t name =
  get_or_make t name
    (fun () -> C (Atomic.make 0))
    (function C c -> c | _ -> wrong name)

let gauge t name =
  get_or_make t name
    (fun () -> G (Atomic.make 0.0))
    (function G g -> g | _ -> wrong name)

let fcounter t name =
  get_or_make t name
    (fun () -> F (Atomic.make 0.0))
    (function F f -> f | _ -> wrong name)

let histogram t name =
  get_or_make t name
    (fun () -> H (Histogram.create ()))
    (function H h -> h | _ -> wrong name)

let sorted_items t =
  let items = with_lock t (fun () -> t.items) in
  List.sort (fun (a, _) (b, _) -> String.compare a b) items

(* A typed point-in-time view of the registry, name-sorted: the one
   structure the exporters (OpenMetrics, run.json) both consume. *)
type hist_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : (float * int) list;
}

type snapshot_value =
  | Counter_v of int
  | Gauge_v of float
  | Fcounter_v of float
  | Histogram_v of hist_snapshot

let snapshot t =
  List.map
    (fun (n, m) ->
      let v =
        match m with
        | C c -> Counter_v (Counter.value c)
        | G g -> Gauge_v (Gauge.value g)
        | F f -> Fcounter_v (Fcounter.value f)
        | H h ->
            Histogram_v
              {
                h_count = Histogram.count h;
                h_sum = Histogram.sum h;
                h_min = Histogram.min_value h;
                h_max = Histogram.max_value h;
                h_buckets = Histogram.buckets h;
              }
      in
      (n, v))
    (sorted_items t)
