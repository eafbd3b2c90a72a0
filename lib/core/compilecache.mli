(** Cross-compile incremental cache.

    Steady-state serving recompiles the same model family over and over
    as context buckets drift; almost all of that work is identical from
    one compile to the next.  This module is the shared machinery behind
    the caches that exploit it:

    - the {e whole-plan} cache in {!Compile.compile} (memory LRU plus an
      optional on-disk store), keyed by a digest of the input graph, the
      compile options, the pod, and the {!Elk_partition.Partition}
      context fingerprint — a warm hit returns the previously compiled
      plan, byte-identical by construction;
    - the {e candidate-order} memo in {!Reorder.candidate_orders};
    - the {e suffix-resume} memo in {!Scheduler.run}, which lets the
      backward induction skip re-deriving decisions for trailing
      operators whose shapes and dependencies are unchanged;
    - cross-context memo sharing inside {!Elk_partition.Partition}
      itself (enumeration and preload frontiers).

    Every key digests complete canonical encodings (length-prefixed
    strings, bit-exact floats), so hits cannot conflate distinct inputs.
    Disable everything with {!set_enabled}[ false], the CLI's
    [--no-compile-cache], or [ELK_COMPILE_CACHE=0] in the environment —
    compilation then behaves exactly as if this module did not exist. *)

val enabled : unit -> bool
(** Whether the compile caches are active (default: yes, unless
    [ELK_COMPILE_CACHE=0] was set at startup).  This is
    {!Elk_partition.Partition.memo_sharing}. *)

val set_enabled : bool -> unit
(** Toggle all compile caches.  This is
    {!Elk_partition.Partition.set_memo_sharing}, the one switch, so the
    partition memos' cross-context sharing toggles with them.  Existing
    entries are kept (re-enabling resumes warm); call {!reset} for a cold
    start. *)

(** {1 Counters} *)

type stats = {
  plan_hits : int;  (** whole-plan cache hits (memory or disk). *)
  plan_misses : int;  (** whole-plan cache misses (full compiles). *)
  plan_evictions : int;  (** LRU evictions across in-memory stores. *)
  disk_hits : int;  (** subset of [plan_hits] served from disk. *)
  sched_resumes : int;  (** backward inductions resumed from a suffix memo. *)
  reorder_hits : int;  (** candidate-order memo hits. *)
}

val stats : unit -> stats
(** Process-global counters since start (or the last {!reset}).  Always
    recorded, independent of {!Elk_obs.Control}; the same events also
    increment [elk_compile_cache_*_total] metrics when observability is
    enabled. *)

val note_plan_hit : unit -> unit
val note_plan_miss : unit -> unit
val note_disk_hit : unit -> unit
val note_sched_resume : unit -> unit
val note_reorder_hit : unit -> unit

(** {1 In-memory LRU}

    The store type shared by the whole-plan, reorder, and scheduler
    memos.  All operations are serialized by a per-store mutex; [find]
    refreshes recency; [put] evicts the least-recently-used entry once
    at capacity (counted in [plan_evictions]). *)
module Lru : sig
  type ('k, 'v) t

  val create : cap:int -> unit -> ('k, 'v) t
  val find : ('k, 'v) t -> 'k -> 'v option
  val put : ('k, 'v) t -> 'k -> 'v -> unit
  val length : ('k, 'v) t -> int
  val clear : ('k, 'v) t -> unit

  val set_cap : ('k, 'v) t -> int -> unit
  (** Shrink/grow capacity, evicting immediately if over the new cap. *)
end

(** {1 Canonical digests} *)

val node_digest : Elk_model.Graph.node -> string
(** 16-byte digest of one node: id, full operator signature
    ({!Elk_partition.Partition.plan_signature}), operator name, layer,
    role, and dependency ids.  The unit of dirtiness tracking for the
    scheduler's suffix resume. *)

val graph_digest : Elk_model.Graph.t -> string
(** Hex digest of a whole graph (name plus every {!node_digest}). *)

val digest_strings : string list -> string
(** Hex digest of a length-prefixed concatenation — the generic key
    combinator ([digest_strings [ctx_fp; options_sig; ...]]). *)

(** {1 On-disk store}

    Active only when [ELK_COMPILE_CACHE_DIR] is set.  One file per
    whole-plan key; entries carry a format version and a key echo, and
    any mismatch, short read, or exception degrades to a miss.  Writes
    are atomic (temp file + rename).  Values round-trip through
    [Marshal]; callers must store only plain data and re-derive anything
    cheap (timelines, programs) after a hit. *)

val disk_dir : unit -> string option
val disk_find : key:string -> 'a option
val disk_store : key:string -> 'a -> unit

(** {1 Reset} *)

val on_reset : (unit -> unit) -> unit
(** Register a clear hook (module-init time in cache owners). *)

val reset : unit -> unit
(** Clear every in-memory store (registered hooks plus the shared
    partition memos) and zero {!stats} — a cold-cache state for tests
    and benchmarks.  Does not touch the on-disk store. *)
