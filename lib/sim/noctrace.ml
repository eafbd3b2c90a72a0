(* Dynamic per-link interconnect recording for the simulator event loop
   (see the interface for the contract).  A transfer booked along a
   route-table path is a single row: its reservations, one per link of
   the path, all start with it and hold each link for bytes over the
   class's effective bandwidth there, so they are derived when read,
   with the fabric's own float expression.  Reservations made outside a
   path (the all-to-all preload fan-out) are rows of their own.  Nothing
   here is ever read back into a timing computation. *)

module N = Elk_noc.Noc

(* The three communication phases of the device program.  Preload is
   the pre_fabric class; Distribute and Exchange share the fg_fabric
   class (the execution share of each link). *)
type cls = Preload | Distribute | Exchange

let cls_name = function
  | Preload -> "preload"
  | Distribute -> "distribute"
  | Exchange -> "exchange"

let cls_index = function Preload -> 0 | Distribute -> 1 | Exchange -> 2
let cls_of_index = [| Preload; Distribute; Exchange |]

type booking = {
  b_cls : cls;
  b_op : int;
  b_link : N.link;
  b_bytes : float;
  b_start : float;  (* when the reservation begins occupying the link *)
  b_end : float;  (* when the link frees (bytes / effective bandwidth) *)
}

(* Rows of [ni] int and [nf] float fields, row-major in fixed-size
   chunks of two unboxed arrays.  A full store adds a chunk and never
   copies one: a recorded run allocates little more than its rows, which
   keeps the major heap, and so the GC's work, small. *)
let chunk_rows = 512

type store = {
  ni : int;
  nf : int;
  mutable len : int;
  mutable ints : int array array;  (* chunks *)
  mutable floats : float array array;
}

let store ~ni ~nf = { ni; nf; len = 0; ints = [||]; floats = [||] }

(* Append a row; returns its index. *)
let push s =
  if s.len = chunk_rows * Array.length s.ints then begin
    s.ints <- Array.append s.ints [| Array.make (chunk_rows * s.ni) 0 |];
    s.floats <- Array.append s.floats [| Array.make (chunk_rows * s.nf) 0. |]
  end;
  s.len <- s.len + 1;
  s.len - 1

let set_int s row k v = s.ints.(row / chunk_rows).((s.ni * (row mod chunk_rows)) + k) <- v
let set_float s row k v = s.floats.(row / chunk_rows).((s.nf * (row mod chunk_rows)) + k) <- v
(* Readers are inlined: a float returned from a call would be boxed. *)
let[@inline] int_at s row k = s.ints.(row / chunk_rows).((s.ni * (row mod chunk_rows)) + k)
let[@inline] float_at s row k = s.floats.(row / chunk_rows).((s.nf * (row mod chunk_rows)) + k)

(* Explicit bookings: ints (cls, op, link id), floats (bytes, start,
   end).  Transfers: ints (cls, op, src, dst, hops, explicit bookings
   recorded before it, eff slot), floats (bytes, wait, start, end); nodes
   are coded Core c -> c, Hbm h -> -1 - h.  A path transfer (eff slot >= 0)
   also stands for its bookings: one per link of its route-table path,
   in path order, just before it in recording order, each from its start
   to start + bytes / effs.(slot).(link).  The explicit-bookings count
   fixes where those fall among explicit bookings; an explicit transfer
   has slot -1. *)
type t = {
  noc : N.t;
  bk : store;
  tr : store;
  mutable effs : float array array;  (* the bandwidth arrays of path transfers *)
  mutable n_bookings : int;
  nodes : N.node array;  (* by code c at c, or at cores - 1 - c when negative *)
}

let create noc =
  let cores = N.cores noc and ctrls = (N.chip noc).Elk_arch.Arch.hbm_controllers in
  let node i = if i < cores then N.Core i else N.Hbm (i - cores) in
  { noc; bk = store ~ni:3 ~nf:3; tr = store ~ni:7 ~nf:4; effs = [||]; n_bookings = 0;
    nodes = Array.init (cores + ctrls) node }

let noc t = t.noc
let num_bookings t = t.n_bookings
let num_transfers t = t.tr.len

let node_code = function N.Core c -> c | N.Hbm h -> -1 - h
(* Decoding reads the node table, so it allocates nothing. *)
let node_of_code t c = t.nodes.(if c >= 0 then c else N.cores t.noc - 1 - c)

let record_booking t ~cls ~op ~link ~bytes ~t_start ~t_end =
  if link < 0 || link >= N.num_links t.noc then
    invalid_arg "Noctrace.record_booking: no such link id";
  let s = t.bk in
  let r = push s in
  set_int s r 0 (cls_index cls);
  set_int s r 1 op;
  set_int s r 2 link;
  set_float s r 0 bytes;
  set_float s r 1 t_start;
  set_float s r 2 t_end;
  t.n_bookings <- t.n_bookings + 1

let push_transfer t ~cls ~op ~src ~dst ~bytes ~hops ~wait ~t_start ~t_end ~slot =
  let s = t.tr in
  let r = push s in
  set_int s r 0 (cls_index cls);
  set_int s r 1 op;
  set_int s r 2 (node_code src);
  set_int s r 3 (node_code dst);
  set_int s r 4 hops;
  set_int s r 5 t.bk.len;
  set_int s r 6 slot;
  set_float s r 0 bytes;
  set_float s r 1 wait;
  set_float s r 2 t_start;
  set_float s r 3 t_end

let record_transfer t ~cls ~op ~src ~dst ~bytes ~hops ~wait ~t_start ~t_end =
  if hops < 0 then invalid_arg "Noctrace.record_transfer: negative hops";
  push_transfer t ~cls ~op ~src ~dst ~bytes ~hops ~wait ~t_start ~t_end ~slot:(-1)

(* The slot of a bandwidth array, registered on first use. *)
let rec eff_slot t eff i =
  if i = Array.length t.effs then begin
    t.effs <- Array.append t.effs [| eff |];
    i
  end
  else if t.effs.(i) == eff then i
  else eff_slot t eff (i + 1)

let record_path t ~cls ~op (p : N.path) ~eff ~bytes ~wait ~t_start ~t_end =
  if Array.length eff <> N.num_links t.noc then
    invalid_arg "Noctrace.record_path: eff is not indexed by this chip's link ids";
  let hops = Array.length p.N.ids in
  push_transfer t ~cls ~op ~src:p.N.src ~dst:p.N.dst ~bytes ~hops ~wait ~t_start ~t_end
    ~slot:(eff_slot t eff 0);
  t.n_bookings <- t.n_bookings + hops

(* ---- derived views ---------------------------------------------------- *)

let[@inline] bk_cls t i = int_at t.bk i 0
let[@inline] tr_cls t i = int_at t.tr i 0
let[@inline] tr_op t i = int_at t.tr i 1
let[@inline] tr_hops t i = int_at t.tr i 4
let[@inline] tr_bytes t i = float_at t.tr i 0
let[@inline] tr_wait t i = float_at t.tr i 1
let[@inline] tr_start t i = float_at t.tr i 2

(* A cursor over every booking, in recording order: [next] loads the
   next booking into it and says whether there was one.  Its floats sit
   in an unboxed array, so a walk allocates nothing per booking. *)
type cursor = {
  mutable cls : int;
  mutable op : int;
  mutable link : int;
  f : float array;  (* bytes, start, end *)
  mutable next_tr : int;  (* next transfer row *)
  mutable next_bk : int;  (* next explicit booking row *)
  mutable ids : int array;  (* the current path's link ids *)
  mutable hop : int;  (* next position in [ids] *)
  mutable eff : float array;  (* the current path's bandwidths by link id *)
}

let cursor () =
  { cls = 0; op = 0; link = 0; f = Array.make 3 0.; next_tr = 0; next_bk = 0; ids = [||];
    hop = 0; eff = [||] }

let rec next t c =
  if c.hop < Array.length c.ids then begin
    let link = c.ids.(c.hop) in
    c.link <- link;
    c.f.(2) <- c.f.(1) +. (c.f.(0) /. c.eff.(link));
    c.hop <- c.hop + 1;
    true
  end
  else if c.next_bk < (if c.next_tr < t.tr.len then int_at t.tr c.next_tr 5 else t.bk.len)
  then begin
    let i = c.next_bk in
    c.cls <- bk_cls t i;
    c.op <- int_at t.bk i 1;
    c.link <- int_at t.bk i 2;
    c.f.(0) <- float_at t.bk i 0;
    c.f.(1) <- float_at t.bk i 1;
    c.f.(2) <- float_at t.bk i 2;
    c.next_bk <- i + 1;
    true
  end
  else if c.next_tr < t.tr.len then begin
    let i = c.next_tr in
    c.next_tr <- i + 1;
    let slot = int_at t.tr i 6 in
    if slot >= 0 then begin
      c.cls <- tr_cls t i;
      c.op <- tr_op t i;
      c.f.(0) <- tr_bytes t i;
      c.f.(1) <- tr_start t i;
      c.eff <- t.effs.(slot);
      c.ids <-
        (N.path t.noc ~src:(node_of_code t (int_at t.tr i 2))
           ~dst:(node_of_code t (int_at t.tr i 3))).N.ids;
      c.hop <- 0
    end;
    next t c
  end
  else false

let bookings t =
  let c = cursor () and acc = ref [] in
  while next t c do
    acc :=
      { b_cls = cls_of_index.(c.cls); b_op = c.op; b_link = N.link_of_id t.noc c.link;
        b_bytes = c.f.(0); b_start = c.f.(1); b_end = c.f.(2) }
      :: !acc
  done;
  Array.of_list (List.rev !acc)

(* Per-link aggregate, derived on demand. *)
type link_stat = {
  ls_link : N.link;
  ls_bandwidth : float;  (* raw link capacity, B/s *)
  ls_volume : float;  (* total booked bytes *)
  ls_preload : float;  (* booked bytes, preload class *)
  ls_distribute : float;  (* booked bytes, distribute phase *)
  ls_exchange : float;  (* booked bytes, exchange phase *)
  ls_busy : float;  (* summed reservation time across both classes *)
  ls_bookings : int;
}

(* Per-link sums by link id, added in recording order.  Bookings within
   one class never overlap on a link (the fabric's free-time
   serialization), so summed reservation time is exact per class; across
   the two classes the link is a shared fluid and the sum can exceed the
   horizon only if the recording drifted from the model (Nocprof.check
   enforces the bound per class). *)
type sums = {
  volume : float array;
  by_cls : float array;  (* by 3 * link + class *)
  busy : float array;
  count : int array;
}

let sums t =
  let n = N.num_links t.noc in
  { volume = Array.make n 0.; by_cls = Array.make (3 * n) 0.; busy = Array.make n 0.;
    count = Array.make n 0 }

let add_booking s c =
  let l = c.link in
  let k = (3 * l) + c.cls in
  s.volume.(l) <- s.volume.(l) +. c.f.(0);
  s.by_cls.(k) <- s.by_cls.(k) +. c.f.(0);
  s.busy.(l) <- s.busy.(l) +. Float.max 0. (c.f.(2) -. c.f.(1));
  s.count.(l) <- s.count.(l) + 1

(* All touched links in canonical (id) order. *)
let stat_rows t s =
  let rows = ref [] in
  for l = Array.length s.count - 1 downto 0 do
    if s.count.(l) > 0 then begin
      let link = N.link_of_id t.noc l in
      rows :=
        { ls_link = link; ls_bandwidth = N.link_bandwidth t.noc link;
          ls_volume = s.volume.(l); ls_preload = s.by_cls.(3 * l);
          ls_distribute = s.by_cls.((3 * l) + 1); ls_exchange = s.by_cls.((3 * l) + 2);
          ls_busy = s.busy.(l); ls_bookings = s.count.(l) }
        :: !rows
    end
  done;
  !rows

(* Transfer sums run newest first: the committed snapshots hold the
   floats that order gives. *)
let class_bytes t ~cls =
  let c = cls_index cls and sum = ref 0. in
  for i = t.tr.len - 1 downto 0 do
    if tr_cls t i = c then sum := !sum +. tr_bytes t i
  done;
  !sum

let total_transfer_bytes t =
  let sum = ref 0. in
  for i = t.tr.len - 1 downto 0 do
    sum := !sum +. tr_bytes t i
  done;
  !sum

(* Hop-count histogram: [(hops, transfers, bytes)] sorted by hops. *)
let hop_histogram t =
  let top = ref 0 in
  for i = 0 to t.tr.len - 1 do
    top := max !top (tr_hops t i)
  done;
  let count = Array.make (!top + 1) 0 and bytes = Array.make (!top + 1) 0. in
  for i = t.tr.len - 1 downto 0 do
    let h = tr_hops t i in
    count.(h) <- count.(h) + 1;
    bytes.(h) <- bytes.(h) +. tr_bytes t i
  done;
  let rows = ref [] in
  for h = !top downto 0 do
    if count.(h) > 0 then rows := (h, count.(h), bytes.(h)) :: !rows
  done;
  !rows

(* ---- the per-report index --------------------------------------------- *)

(* Booking intervals grouped by (link, class group) — group 0 the
   preload class, group 1 distribute and exchange — each group ordered by
   start, ties in recording order; the per-link stats; and the largest
   queueing wait per (op, class). *)
type index = {
  noc_of : N.t;
  first : int array;  (* by 2 * link + group: first position; one past the end last *)
  starts : float array;  (* by position *)
  ends : float array;
  stats : link_stat list;
  waits : float array;  (* by 3 * op + class *)
}

let index t =
  let groups = 2 * N.num_links t.noc and n = t.n_bookings in
  (* One walk: the per-link sums, and each booking's group and interval
     in recording order. *)
  let s = sums t and c = cursor () in
  let grp = Array.make n 0 and st = Array.make n 0. and en = Array.make n 0. in
  let first = Array.make (groups + 1) 0 in
  let k = ref 0 in
  while next t c do
    add_booking s c;
    let g = (2 * c.link) + if c.cls = 0 then 0 else 1 in
    first.(g + 1) <- first.(g + 1) + 1;
    grp.(!k) <- g;
    st.(!k) <- c.f.(1);
    en.(!k) <- c.f.(2);
    incr k
  done;
  for g = 1 to groups do
    first.(g) <- first.(g) + first.(g - 1)
  done;
  (* Counting sort by group: stable, so each group is in recording order. *)
  let fill = Array.sub first 0 groups in
  let starts = Array.make n 0. and ends = Array.make n 0. in
  for k = 0 to n - 1 do
    let g = grp.(k) in
    starts.(fill.(g)) <- st.(k);
    ends.(fill.(g)) <- en.(k);
    fill.(g) <- fill.(g) + 1
  done;
  (* A fabric books each link's class in start order, so a group needs
     sorting only when the record was written some other way. *)
  for g = 0 to groups - 1 do
    let lo = first.(g) and hi = first.(g + 1) in
    let sorted = ref true in
    for k = lo + 1 to hi - 1 do
      if starts.(k) < starts.(k - 1) then sorted := false
    done;
    if not !sorted then begin
      let run = Array.init (hi - lo) (fun k -> (starts.(lo + k), ends.(lo + k))) in
      Array.stable_sort (fun (a, _) (b, _) -> Float.compare a b) run;
      Array.iteri
        (fun k (a, b) ->
          starts.(lo + k) <- a;
          ends.(lo + k) <- b)
        run
    end
  done;
  let ops = ref 0 in
  for i = 0 to t.tr.len - 1 do
    ops := max !ops (tr_op t i + 1)
  done;
  let waits = Array.make (3 * !ops) 0. in
  for i = 0 to t.tr.len - 1 do
    let k = (3 * tr_op t i) + tr_cls t i in
    waits.(k) <- Float.max waits.(k) (tr_wait t i)
  done;
  { noc_of = t.noc; first; starts; ends; stats = stat_rows t s; waits }

let stats ix = ix.stats

(* Busy intervals of one link, chronological, one list per class group. *)
let busy_intervals ix ~link =
  if link < 0 || link >= N.num_links ix.noc_of then
    invalid_arg "Noctrace.busy_intervals: no such link id";
  let group g =
    let acc = ref [] in
    for k = ix.first.(g + 1) - 1 downto ix.first.(g) do
      acc := (ix.starts.(k), ix.ends.(k)) :: !acc
    done;
    !acc
  in
  (group (2 * link), group ((2 * link) + 1))

type unions = { u_first : int array; u_starts : float array; u_ends : float array }

(* Each link's two groups merged by start, preload first on ties, and
   swept once: an interval that starts no later than the current union
   interval ends extends it. *)
let unions ix =
  let links = N.num_links ix.noc_of in
  let u_first = Array.make (links + 1) 0 in
  let u_starts = Array.make (Array.length ix.starts) 0. in
  let u_ends = Array.make (Array.length ix.starts) 0. in
  let m = ref 0 in
  for l = 0 to links - 1 do
    u_first.(l) <- !m;
    let pre_end = ix.first.((2 * l) + 1) and ex_end = ix.first.((2 * l) + 2) in
    let i = ref ix.first.(2 * l) and j = ref pre_end in
    while !i < pre_end || !j < ex_end do
      let pre =
        !j >= ex_end || (!i < pre_end && Float.compare ix.starts.(!i) ix.starts.(!j) <= 0)
      in
      let k = if pre then !i else !j in
      if pre then incr i else incr j;
      if !m > u_first.(l) && ix.starts.(k) <= u_ends.(!m - 1) then
        u_ends.(!m - 1) <- Float.max u_ends.(!m - 1) ix.ends.(k)
      else begin
        u_starts.(!m) <- ix.starts.(k);
        u_ends.(!m) <- ix.ends.(k);
        incr m
      end
    done
  done;
  u_first.(links) <- !m;
  { u_first; u_starts; u_ends }

(* Groups in order: link 0's preload and execution groups, then link 1's. *)
let overlap ix ~slack =
  let groups = Array.length ix.first - 1 in
  let rec scan g k =
    if g = groups then None
    else if k >= ix.first.(g + 1) then scan (g + 1) (ix.first.(g + 1) + 1)
    else if ix.starts.(k) < ix.ends.(k - 1) -. slack then
      Some (g / 2, if g mod 2 = 0 then `Preload else `Execution)
    else scan g (k + 1)
  in
  scan 0 (ix.first.(0) + 1)

(* Max queueing wait per (op, class) — the quantity Critpath caps into
   an event's [port_wait]. *)
let max_wait ix ~op ~cls =
  let k = (3 * op) + cls_index cls in
  if op < 0 || k >= Array.length ix.waits then 0. else ix.waits.(k)
