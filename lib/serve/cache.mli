(** Content-addressed artifact cache for the flow service.

    Artifacts (whole flow reports, lint reports, sca proof sets — any
    JSON value) are stored under a key derived from {e content}, never
    from identity: the MD5 of the submitted circuit's canonical netlist
    rendering, the scan-chain count, the {!Fst_core.Config.fingerprint}
    of the semantic configuration, and the artifact kind. Two users
    submitting the same circuit with configs that differ only in
    jobs/sink/budget knobs hash to the same key, so the second
    submit is served without re-running anything; any semantic config
    edit or any netlist edit (beyond comments/whitespace, which the
    canonical rendering strips) changes the key.

    The cache is an in-memory LRU map, optionally backed by a directory:
    with [dir], every insert is also written to
    [<dir>/<key>.json] (atomic tmp+rename), and a memory miss falls
    back to disk before being counted a miss — a restarted daemon keeps
    its warm set. All operations are thread-safe. *)

type t

type stats = {
  entries : int;  (** currently resident in memory *)
  hits : int;
  misses : int;
  inserts : int;
  evictions : int;
}

(** [create ?dir ?max_entries ()] — [max_entries] (default 512) bounds
    the in-memory map; the least-recently-used entry is evicted first
    (disk copies, when [dir] is given, are never evicted). *)
val create : ?dir:string -> ?max_entries:int -> unit -> t

(** [netlist_hash circuit] is the MD5 hex of the circuit's canonical
    {!Fst_netlist.Netfile.to_string} rendering — comments, whitespace
    and definition order do not affect it. *)
val netlist_hash : Fst_netlist.Circuit.t -> string

(** [key ~kind ~netlist ~chains ~config_fp] builds the content address;
    [netlist] is a {!netlist_hash}, [config_fp] a
    {!Fst_core.Config.fingerprint} (or ["-"] for kinds that ignore the
    flow configuration, e.g. lint). *)
val key : kind:string -> netlist:string -> chains:int -> config_fp:string -> string

val find : t -> string -> Fst_obs.Json.t option
val add : t -> string -> Fst_obs.Json.t -> unit
val stats : t -> stats
val stats_to_json : stats -> Fst_obs.Json.t
