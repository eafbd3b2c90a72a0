(* Cross-compile incremental cache (see compilecache.mli). *)

module Metrics = Elk_obs.Metrics
module G = Elk_model.Graph
module O = Elk_tensor.Opspec

(* ------------------------------------------------------------------ *)
(* Enablement.                                                         *)

(* The one switch, read from [ELK_COMPILE_CACHE] once at startup.  It
   gates the whole-plan store; a partition context's memos are the
   context's own and need no switch. *)
let switch =
  ref (match Sys.getenv_opt "ELK_COMPILE_CACHE" with Some "0" -> false | _ -> true)

let enabled () = !switch
let set_enabled v = switch := v

(* ------------------------------------------------------------------ *)
(* Stats: plain process-global counters, always recorded (unlike
   Metrics, which only record while Elk_obs.Control is enabled), so
   tests and the SLO report can assert on them unconditionally. *)

type stats = {
  plan_hits : int;
  plan_misses : int;
  plan_evictions : int;
  disk_hits : int;
}

let c_plan_hits = Atomic.make 0
let c_plan_misses = Atomic.make 0
let c_plan_evictions = Atomic.make 0
let c_disk_hits = Atomic.make 0

let stats () =
  {
    plan_hits = Atomic.get c_plan_hits;
    plan_misses = Atomic.get c_plan_misses;
    plan_evictions = Atomic.get c_plan_evictions;
    disk_hits = Atomic.get c_disk_hits;
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

(* ------------------------------------------------------------------ *)
(* Mutex-guarded LRU behind the in-memory whole-plan store.  Eviction
   scans for the minimum stamp — O(n), fine at the cap sizes used here
   (<= 1k). *)

module Lru = struct
  type ('k, 'v) t = {
    lock : Mutex.t;
    tbl : ('k, 'v * int ref) Hashtbl.t;
    cap : int;
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
end

(* ------------------------------------------------------------------ *)
(* Canonical digests.  Every encoder is length-prefixed so distinct
   inputs cannot collide by separator injection; floats enter bit-exact. *)

(* One buffer and one MD5 for the whole graph.  Ints are 8 bytes, strings
   and lists carry a length or count, so the encoding is prefix-free;
   [flops_per_point] goes in by its bits, so [0.] and [-0.] differ.
   Tensor names are left out: partitioning never reads them.  The bytes
   are a per-domain scratch buffer, grown on demand and hashed in place:
   a warm serving round digests a graph per cache hit, and a fresh buffer
   and its copy per hit would be tens of kilobytes of major-heap
   allocation each. *)
let scratch = Domain.DLS.new_key (fun () -> ref (Bytes.create 32768))

let graph_digest g =
  let buf = Domain.DLS.get scratch and pos = ref 0 in
  let reserve n =
    if !pos + n > Bytes.length !buf then begin
      let grown = Bytes.create (2 * (!pos + n)) in
      Bytes.blit !buf 0 grown 0 !pos;
      buf := grown
    end
  in
  let[@inline] int64 v =
    reserve 8;
    Bytes.set_int64_le !buf !pos v;
    pos := !pos + 8
  in
  let int v = int64 (Int64.of_int v) in
  let char c =
    reserve 1;
    Bytes.set !buf !pos c;
    incr pos
  in
  let str s =
    let n = String.length s in
    int n;
    reserve n;
    Bytes.blit_string s 0 !buf !pos n;
    pos := !pos + n
  in
  let ints l =
    int (List.length l);
    List.iter int l
  in
  let tensor (t : O.tensor) =
    ints t.O.dims;
    char (match t.O.source with O.Weights -> 'w' | O.Kv_cache -> 'k' | O.Activation -> 'a')
  in
  let node (n : G.node) =
    let op = n.G.op in
    int n.G.id;
    str op.O.kind;
    int (Array.length op.O.iter);
    Array.iter int op.O.iter;
    int (List.length op.O.inputs);
    List.iter tensor op.O.inputs;
    tensor op.O.output;
    int64 (Int64.bits_of_float op.O.flops_per_point);
    str (Elk_tensor.Dtype.to_string op.O.dtype);
    str op.O.name;
    (match n.G.layer with
    | None -> char 'n'
    | Some l ->
        char 'l';
        int l);
    str n.G.role;
    ints n.G.deps
  in
  str (G.name g);
  let nodes = G.nodes g in
  int (Array.length nodes);
  Array.iter node nodes;
  Digest.to_hex (Digest.subbytes !buf 0 !pos)

let digest_strings parts =
  let b = Buffer.create 256 in
  List.iter
    (fun s ->
      Buffer.add_string b (string_of_int (String.length s));
      Buffer.add_char b ':';
      Buffer.add_string b s)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* On-disk store: one file per whole-plan key under
   ELK_COMPILE_CACHE_DIR.  An entry is three header lines (format
   version, an echo of the key, the hex digest of the payload) and then
   the Marshal payload.  The payload is unmarshalled only once its
   digest matches, so a corrupted entry never becomes a silently
   different value; any mismatch or exception reads as a miss.  Writes
   go through a temp file + rename so a concurrent reader never sees a
   torn entry.                                                         *)

let disk_version = "elk-compile-cache-2"

let disk_dir () =
  match Sys.getenv_opt "ELK_COMPILE_CACHE_DIR" with
  | Some "" | None -> None
  | some -> some

let disk_path dir key = Filename.concat dir ("elk-plan-" ^ key ^ ".cache")

let disk_find ~key =
  match disk_dir () with
  | None -> None
  | Some dir -> (
      try
        let ic = open_in_bin (disk_path dir key) in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            if input_line ic <> disk_version || input_line ic <> key then None
            else
              let sum = input_line ic in
              let payload = In_channel.input_all ic in
              if Digest.to_hex (Digest.string payload) <> sum then None
              else Some (Marshal.from_string payload 0))
      with _ -> None)

let disk_store ~key v =
  match disk_dir () with
  | None -> ()
  | Some dir -> (
      try
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let path = disk_path dir key in
        let tmp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
        let payload = Marshal.to_string v [] in
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            Printf.fprintf oc "%s\n%s\n%s\n" disk_version key
              (Digest.to_hex (Digest.string payload));
            output_string oc payload);
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
  Elk_cost.Costmodel.clear_memo ();
  Atomic.set c_plan_hits 0;
  Atomic.set c_plan_misses 0;
  Atomic.set c_plan_evictions 0;
  Atomic.set c_disk_hits 0
