(* Cross-compile incremental cache (see compilecache.mli). *)

module P = Elk_partition.Partition
module Metrics = Elk_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Enablement.                                                         *)

(* One switch for every cache: Partition's memo sharing, which reads
   [ELK_COMPILE_CACHE] once at startup, also gates the caches below. *)
let enabled = P.memo_sharing
let set_enabled = P.set_memo_sharing

(* ------------------------------------------------------------------ *)
(* Stats: plain process-global counters, always recorded (unlike
   Metrics, which only record while Elk_obs.Control is enabled), so
   tests and the SLO report can assert on them unconditionally. *)

type stats = {
  plan_hits : int;
  plan_misses : int;
  plan_evictions : int;
  disk_hits : int;
  sched_resumes : int;
  reorder_hits : int;
}

let c_plan_hits = Atomic.make 0
let c_plan_misses = Atomic.make 0
let c_plan_evictions = Atomic.make 0
let c_disk_hits = Atomic.make 0
let c_sched_resumes = Atomic.make 0
let c_reorder_hits = Atomic.make 0

let stats () =
  {
    plan_hits = Atomic.get c_plan_hits;
    plan_misses = Atomic.get c_plan_misses;
    plan_evictions = Atomic.get c_plan_evictions;
    disk_hits = Atomic.get c_disk_hits;
    sched_resumes = Atomic.get c_sched_resumes;
    reorder_hits = Atomic.get c_reorder_hits;
  }

let bump counter metric help =
  Atomic.incr counter;
  Metrics.incr metric ~help

let note_plan_hit () =
  bump c_plan_hits "elk_compile_cache_hits_total" "Whole-plan compile cache hits"

let note_plan_miss () =
  bump c_plan_misses "elk_compile_cache_misses_total" "Whole-plan compile cache misses"

let note_disk_hit () =
  bump c_disk_hits "elk_compile_cache_disk_hits_total"
    "Whole-plan compile cache hits served from the on-disk store"

let note_sched_resume () =
  bump c_sched_resumes "elk_compile_cache_sched_resumes_total"
    "Backward inductions resumed from a memoized clean suffix"

let note_reorder_hit () =
  bump c_reorder_hits "elk_compile_cache_reorder_hits_total"
    "Candidate-order sets served from the reorder memo"

(* ------------------------------------------------------------------ *)
(* Mutex-guarded LRU used by every in-memory store.  Eviction scans for
   the minimum stamp — O(n), fine at the cap sizes used here (<= 1k). *)

module Lru = struct
  type ('k, 'v) t = {
    lock : Mutex.t;
    tbl : ('k, 'v * int ref) Hashtbl.t;
    mutable cap : int;
    mutable tick : int;
  }

  let create ~cap () =
    { lock = Mutex.create (); tbl = Hashtbl.create 64; cap = max 1 cap; tick = 0 }

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let find t k =
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl k with
        | None -> None
        | Some (v, stamp) ->
            t.tick <- t.tick + 1;
            stamp := t.tick;
            Some v)

  let evict_one t =
    let victim =
      Hashtbl.fold
        (fun k (_, stamp) acc ->
          match acc with
          | Some (_, s) when s <= !stamp -> acc
          | _ -> Some (k, !stamp))
        t.tbl None
    in
    match victim with
    | Some (k, _) ->
        Hashtbl.remove t.tbl k;
        Atomic.incr c_plan_evictions;
        Metrics.incr "elk_compile_cache_evictions_total"
          ~help:"Entries evicted from in-memory compile cache stores"
    | None -> ()

  let put t k v =
    locked t (fun () ->
        t.tick <- t.tick + 1;
        if not (Hashtbl.mem t.tbl k) && Hashtbl.length t.tbl >= t.cap then evict_one t;
        Hashtbl.replace t.tbl k (v, ref t.tick))

  let length t = locked t (fun () -> Hashtbl.length t.tbl)
  let clear t = locked t (fun () -> Hashtbl.reset t.tbl)

  let set_cap t cap =
    locked t (fun () ->
        t.cap <- max 1 cap;
        while Hashtbl.length t.tbl > t.cap do
          evict_one t
        done)
end

(* ------------------------------------------------------------------ *)
(* Canonical digests.  Every encoder is length-prefixed so distinct
   inputs cannot collide by separator injection; floats render bit-exact
   ("%h").                                                             *)

let add_str b s =
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

let add_int b v =
  Buffer.add_string b (string_of_int v);
  Buffer.add_char b ';'

let node_digest (n : Elk_model.Graph.node) =
  let b = Buffer.create 96 in
  add_int b n.Elk_model.Graph.id;
  add_str b (P.plan_signature n.Elk_model.Graph.op);
  add_str b n.Elk_model.Graph.op.Elk_tensor.Opspec.name;
  (match n.Elk_model.Graph.layer with
  | None -> Buffer.add_char b 'n'
  | Some l ->
      Buffer.add_char b 'l';
      add_int b l);
  add_str b n.Elk_model.Graph.role;
  List.iter (add_int b) n.Elk_model.Graph.deps;
  Digest.string (Buffer.contents b)

let graph_digest g =
  let b = Buffer.create 1024 in
  add_str b (Elk_model.Graph.name g);
  let nodes = Elk_model.Graph.nodes g in
  add_int b (Array.length nodes);
  Array.iter (fun n -> Buffer.add_string b (node_digest n)) nodes;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_strings parts =
  let b = Buffer.create 256 in
  List.iter (add_str b) parts;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* On-disk store: one file per whole-plan key under
   ELK_COMPILE_CACHE_DIR.  Entries are Marshal blobs prefixed by a
   format version and an echo of the key; any mismatch or exception
   reads as a miss.  Writes go through a temp file + rename so a
   concurrent reader never sees a torn entry.                          *)

let disk_version = "elk-compile-cache-1"

let disk_dir () =
  match Sys.getenv_opt "ELK_COMPILE_CACHE_DIR" with
  | Some "" | None -> None
  | some -> some

let disk_path dir key = Filename.concat dir ("elk-plan-" ^ key ^ ".cache")

let disk_find ~key =
  match disk_dir () with
  | None -> None
  | Some dir -> (
      let path = disk_path dir key in
      try
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let ver : string = Marshal.from_channel ic in
            let k : string = Marshal.from_channel ic in
            if ver <> disk_version || k <> key then None
            else Some (Marshal.from_channel ic))
      with _ -> None)

let disk_store ~key v =
  match disk_dir () with
  | None -> ()
  | Some dir -> (
      try
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let path = disk_path dir key in
        let tmp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            Marshal.to_channel oc disk_version [];
            Marshal.to_channel oc key [];
            Marshal.to_channel oc v []);
        Sys.rename tmp path
      with _ -> ())

(* ------------------------------------------------------------------ *)
(* Reset: in-memory stores register a clear hook at module init; tests
   and cold-start benchmarks call [reset] to return the process to a
   pristine (cold) cache state.  The on-disk store is left alone.      *)

let reset_hooks : (unit -> unit) list ref = ref []
let on_reset f = reset_hooks := f :: !reset_hooks

let reset () =
  List.iter (fun f -> f ()) !reset_hooks;
  P.reset_shared_memos ();
  Atomic.set c_plan_hits 0;
  Atomic.set c_plan_misses 0;
  Atomic.set c_plan_evictions 0;
  Atomic.set c_disk_hits 0;
  Atomic.set c_sched_resumes 0;
  Atomic.set c_reorder_hits 0
