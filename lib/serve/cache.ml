module Json = Fst_obs.Json
module Netfile = Fst_netlist.Netfile

type entry = { value : string; mutable used : int }

type t = {
  lock : Mutex.t;
  table : (string, entry) Hashtbl.t;  (* key -> payload JSON text *)
  texts : (string, entry) Hashtbl.t;
      (* MD5 of (name, netlist text) -> netlist_hash of its parse *)
  dir : string option;
  max_entries : int;
  mutable tick : int;  (* LRU clock: bumped on every hit and insert *)
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable evictions : int;
}

type stats = {
  entries : int;
  texts : int;
  hits : int;
  misses : int;
  inserts : int;
  evictions : int;
}

let create ?dir ?(max_entries = 512) () =
  (match dir with
   | Some d when not (Sys.file_exists d) -> (
     try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
   | _ -> ());
  {
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    texts = Hashtbl.create 64;
    dir;
    max_entries = max 1 max_entries;
    tick = 0;
    hits = 0;
    misses = 0;
    inserts = 0;
    evictions = 0;
  }

let netlist_hash circuit =
  Digest.to_hex (Digest.string (Netfile.to_string circuit))

let key ~kind ~netlist ~chains ~config_fp =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s\n%s\n%d\n%s" kind netlist chains config_fp))

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let disk_path t k = Option.map (fun d -> Filename.concat d (k ^ ".json")) t.dir

let touch t e =
  t.tick <- t.tick + 1;
  e.used <- t.tick

let insert t table k v =
  t.tick <- t.tick + 1;
  Hashtbl.replace table k { value = v; used = t.tick }

(* Evict the least-recently-used entries of [table] until it fits, and
   return how many went. O(n) scan per eviction; the map is small
   (hundreds of reports). *)
let evict_to_fit t table =
  let evicted = ref 0 in
  while Hashtbl.length table > t.max_entries do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, used) when used <= e.used -> acc
          | _ -> Some (k, e.used))
        table None
    in
    match victim with
    | Some (k, _) ->
      Hashtbl.remove table k;
      incr evicted
    | None -> ()
  done;
  !evicted

(* The text's 16-byte digest leads, so no (name, text) pair spells
   another, and the text itself is never copied. *)
let text_digest ~name text = Digest.string (Digest.string text ^ name)

let netlist_key t ~name text =
  let d = text_digest ~name text in
  let known =
    locked t (fun () ->
        match Hashtbl.find_opt t.texts d with
        | Some e ->
          touch t e;
          Some e.value
        | None -> None)
  in
  match known with
  | Some h -> (h, lazy (Netfile.parse_string ~name text))
  | None ->
    (* Parsed outside the lock; a text that raises is never recorded. *)
    let circuit = Netfile.parse_string ~name text in
    let h = netlist_hash circuit in
    locked t (fun () ->
        insert t t.texts d h;
        ignore (evict_to_fit t t.texts));
    (h, Lazy.from_val circuit)

(* A disk copy is parsed once before it is served, so a corrupt or
   truncated file is a miss, and served as its compact rendering, so a
   hand-edited file cannot put a newline into a result frame. *)
let read_disk path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let text =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    (match Json.of_string text with
     | j -> Some (Json.to_string j)
     | exception Json.Parse_error _ -> None)

let write_disk path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text);
  Sys.rename tmp path

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some e ->
        touch t e;
        t.hits <- t.hits + 1;
        Some e.value
      | None -> (
        (* Memory miss: the disk copy (when a directory is attached)
           still counts as a hit — that is the whole point of
           persistence across restarts. *)
        match Option.map read_disk (disk_path t k) with
        | Some (Some v) ->
          insert t t.table k v;
          t.evictions <- t.evictions + evict_to_fit t t.table;
          t.hits <- t.hits + 1;
          Some v
        | _ ->
          t.misses <- t.misses + 1;
          None))

let add t k v =
  locked t (fun () ->
      insert t t.table k v;
      t.inserts <- t.inserts + 1;
      t.evictions <- t.evictions + evict_to_fit t t.table;
      match disk_path t k with
      | Some path -> ( try write_disk path v with Sys_error _ -> ())
      | None -> ())

let stats t =
  locked t (fun () ->
      {
        entries = Hashtbl.length t.table;
        texts = Hashtbl.length t.texts;
        hits = t.hits;
        misses = t.misses;
        inserts = t.inserts;
        evictions = t.evictions;
      })

let stats_to_json s =
  Json.Obj
    [
      ("entries", Json.Int s.entries);
      ("texts", Json.Int s.texts);
      ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("inserts", Json.Int s.inserts);
      ("evictions", Json.Int s.evictions);
    ]
