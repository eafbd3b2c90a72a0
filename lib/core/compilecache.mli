(** Cross-compile incremental cache.

    Steady-state serving recompiles the same model family over and over
    as context buckets drift; almost all of that work is identical from
    one compile to the next.  This module is the machinery behind the
    {e whole-plan} cache in {!Compile.compile}: a memory LRU plus an
    optional on-disk store, keyed by a digest of the input graph, the
    compile options, the pod, and the {!Elk_partition.Partition} context
    fingerprint.  A warm hit returns the previously compiled plan,
    byte-identical by construction.  It is the one store that outlives a
    compile's context: a {!Elk_partition.Partition.ctx} keeps its own
    frontier and option memos, which die with it, and the scheduler
    and the preload-order search keep no state between compiles.

    Every key digests complete canonical encodings (length-prefixed
    strings, bit-exact floats), so hits cannot conflate distinct inputs.
    Disable the store with {!set_enabled}[ false], the CLI's
    [--no-compile-cache], or [ELK_COMPILE_CACHE=0] in the environment —
    compilation then behaves exactly as if this module did not exist. *)

val enabled : unit -> bool
(** Whether the whole-plan store, in memory and on disk, is active
    (default: yes, unless [ELK_COMPILE_CACHE=0] was set at startup; this
    module reads that variable once). *)

val set_enabled : bool -> unit
(** Toggle the whole-plan store, the one compile-cache switch.  Existing
    entries are kept (re-enabling resumes warm); call {!reset} for a cold
    start.  A partition context's memos are not gated: they belong to
    the context. *)

(** {1 Counters} *)

type stats = {
  plan_hits : int;  (** whole-plan cache hits (memory or disk). *)
  plan_misses : int;  (** whole-plan cache misses (full compiles). *)
  plan_evictions : int;  (** LRU evictions across in-memory stores. *)
  disk_hits : int;  (** subset of [plan_hits] served from disk. *)
}

val stats : unit -> stats
(** Process-global counters since start (or the last {!reset}).  Always
    recorded, independent of {!Elk_obs.Control}; the same events also
    increment [elk_compile_cache_*_total] metrics when observability is
    enabled. *)

val note_plan_hit : unit -> unit
val note_plan_miss : unit -> unit
val note_disk_hit : unit -> unit

(** {1 In-memory LRU}

    The store type of the in-memory whole-plan cache.  All operations
    are serialized by a per-store mutex; [find] refreshes recency; [put]
    evicts the least-recently-used entry once at capacity (counted in
    [plan_evictions]). *)
module Lru : sig
  type ('k, 'v) t

  val create : cap:int -> unit -> ('k, 'v) t
  val find : ('k, 'v) t -> 'k -> 'v option
  val put : ('k, 'v) t -> 'k -> 'v -> unit
  val length : ('k, 'v) t -> int
  val clear : ('k, 'v) t -> unit
end

(** {1 Canonical digests} *)

val graph_digest : Elk_model.Graph.t -> string
(** Hex MD5 (32 characters) of a whole graph, hashed once over one
    buffer: its name and node count, and per node the id, operator kind,
    extents, each input's and the output's dims and source, the bits of
    [flops_per_point], the dtype, the operator name, the layer, the role
    and the dependency ids.  Ints are 8 bytes; strings and lists carry a
    length or count.  Tensor names are not digested. *)

val digest_strings : string list -> string
(** Hex digest of a length-prefixed concatenation — the generic key
    combinator ([digest_strings [ctx_fp; options_sig; ...]]). *)

(** {1 On-disk store}

    Active only when [ELK_COMPILE_CACHE_DIR] is set.  One file per
    whole-plan key; entries carry a format version, a key echo and a
    digest of the payload.  {!disk_find} unmarshals a payload only after
    its digest matches, and any mismatch, short read, or exception
    degrades to a miss, so a corrupted entry is recompiled rather than
    read back as a different plan.  Writes are atomic (temp file +
    rename).  Values round-trip through [Marshal]; callers must store
    only plain data and re-derive anything cheap (timelines, programs)
    after a hit. *)

val disk_dir : unit -> string option
val disk_find : key:string -> 'a option
val disk_store : key:string -> 'a -> unit

(** {1 Reset} *)

val on_reset : (unit -> unit) -> unit
(** Register a clear hook (module-init time in cache owners). *)

val reset : unit -> unit
(** Clear the in-memory whole-plan store (every registered hook), forget
    the cost-model trees {!Elk_cost.Costmodel.for_chip} keeps, and zero
    {!stats} — a cold-cache state for tests and benchmarks.  Does not
    touch the on-disk store, nor the memos of a live partition context:
    a compile is as cold as a new process's on a context made after the
    reset. *)
