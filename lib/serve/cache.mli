(** Content-addressed artifact cache for the flow service.

    Artifacts (whole flow reports, lint reports, sca proof sets) are
    stored as their compact JSON text — the exact bytes a result frame
    carries — under a key derived from {e content}, never from identity:
    the MD5 of the submitted circuit's canonical netlist rendering, the
    scan-chain count, the {!Fst_core.Config.fingerprint} of the semantic
    configuration, and the artifact kind. Two users submitting the same
    circuit with configs that differ only in jobs/sink/budget knobs hash
    to the same key, so the second submit is served without re-running
    anything; any semantic config edit or any netlist edit (beyond
    comments/whitespace, which the canonical rendering strips) changes
    the key.

    A second map remembers, per (circuit name, netlist text), the
    canonical netlist hash its parse produced, so a repeat submit of the
    same text skips parse, render and hash ({!netlist_key}). Both maps
    are in-memory LRUs bounded by [max_entries]. With [dir], every
    artifact insert is also written to [<dir>/<key>.json] (atomic
    tmp+rename), and a memory miss falls back to disk before being
    counted a miss — a restarted daemon keeps its warm set. All
    operations are thread-safe. *)

type t

type stats = {
  entries : int;  (** artifacts currently resident in memory *)
  texts : int;  (** netlist texts whose hash is remembered *)
  hits : int;
  misses : int;
  inserts : int;
  evictions : int;  (** artifacts evicted from memory *)
}

(** [create ?dir ?max_entries ()] — [max_entries] (default 512) bounds
    each in-memory map; the least-recently-used entry is evicted first
    (disk copies, when [dir] is given, are never evicted). *)
val create : ?dir:string -> ?max_entries:int -> unit -> t

(** [netlist_hash circuit] is the MD5 hex of the circuit's canonical
    {!Fst_netlist.Netfile.to_string} rendering — comments, whitespace
    and definition order do not affect it. *)
val netlist_hash : Fst_netlist.Circuit.t -> string

(** [netlist_key t ~name text] is [(netlist_hash c, c)] for
    [c = Netfile.parse_string ~name text]. A (name, text) pair seen
    before costs one digest and a lookup: its hash is remembered and the
    circuit is parsed only when forced. Raises what
    {!Fst_netlist.Netfile.parse_string} raises; a text that fails to
    parse is not remembered. *)
val netlist_key :
  t -> name:string -> string -> string * Fst_netlist.Circuit.t Lazy.t

(** [key ~kind ~netlist ~chains ~config_fp] builds the content address;
    [netlist] is a {!netlist_hash}, [config_fp] a
    {!Fst_core.Config.fingerprint} (or ["-"] for kinds that ignore the
    flow configuration, e.g. lint). *)
val key : kind:string -> netlist:string -> chains:int -> config_fp:string -> string

(** [find t key] is the artifact's JSON text. A disk copy is parsed
    before it is served: a file that is not JSON is a miss. *)
val find : t -> string -> string option

(** [add t key text] stores an artifact's compact JSON text (one line). *)
val add : t -> string -> string -> unit

val stats : t -> stats
val stats_to_json : stats -> Fst_obs.Json.t
