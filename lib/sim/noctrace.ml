(* Dynamic per-link interconnect recording for the simulator event loop.

   The flow model books every transfer onto the links of its route (the
   two fluid fabrics serialize bookings per link within each traffic
   class).  When recording is on, each booking is mirrored here twice:
   once per link touched — (class, op, link, bytes, busy interval), the
   exact reservation the fabric made — and once per transfer — (class,
   op, src, dst, bytes, hops, queueing wait, envelope).  Everything else
   (per-link volumes and busy time, class breakdowns, hop histograms,
   utilization timelines) is derived on demand from those records, so
   recording itself is a list cons per booking.  It is the one record
   the event loop keeps as it runs (Critpath events and the Memtrace
   record are derived from per-op phase times afterwards), and it is
   pure bookkeeping: nothing here is ever read back into a timing
   computation (the test suite checks simulated output is
   byte-identical with recording on and off). *)

module N = Elk_noc.Noc

(* The three communication phases of the device program.  Preload is
   the pre_fabric class; Distribute and Exchange share the fg_fabric
   class (the execution share of each link). *)
type cls = Preload | Distribute | Exchange

let cls_name = function
  | Preload -> "preload"
  | Distribute -> "distribute"
  | Exchange -> "exchange"

type booking = {
  b_cls : cls;
  b_op : int;
  b_link : N.link;
  b_bytes : float;
  b_start : float;  (* when the reservation begins occupying the link *)
  b_end : float;  (* when the link frees (bytes / effective bandwidth) *)
}

type transfer = {
  t_cls : cls;
  t_op : int;
  t_src : N.node;
  t_dst : N.node;
  t_bytes : float;
  t_hops : int;  (* links traversed = List.length route *)
  t_wait : float;  (* queueing delay: booked start - requested start *)
  t_start : float;  (* when the bytes begin moving *)
  t_end : float;  (* completion (latency + bottleneck service) *)
}

type t = {
  noc : N.t;
  mutable bookings : booking list;  (* reverse emission order *)
  mutable transfers : transfer list;  (* reverse emission order *)
  mutable n_bookings : int;
  mutable n_transfers : int;
}

let create noc = { noc; bookings = []; transfers = []; n_bookings = 0; n_transfers = 0 }
let noc t = t.noc
let num_bookings t = t.n_bookings
let num_transfers t = t.n_transfers

let record_booking t ~cls ~op ~link ~bytes ~t_start ~t_end =
  t.bookings <-
    { b_cls = cls; b_op = op; b_link = link; b_bytes = bytes;
      b_start = t_start; b_end = t_end }
    :: t.bookings;
  t.n_bookings <- t.n_bookings + 1

let record_transfer t ~cls ~op ~src ~dst ~bytes ~hops ~wait ~t_start ~t_end =
  t.transfers <-
    { t_cls = cls; t_op = op; t_src = src; t_dst = dst; t_bytes = bytes;
      t_hops = hops; t_wait = wait; t_start = t_start; t_end = t_end }
    :: t.transfers;
  t.n_transfers <- t.n_transfers + 1

(* ---- derived views ---------------------------------------------------- *)

let bookings t = Array.of_list (List.rev t.bookings)
let transfers t = Array.of_list (List.rev t.transfers)

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

(* All touched links in canonical order, with volumes and busy time.
   Bookings within one class never overlap on a link (the fabric's
   free-time serialization), so summed reservation time is exact per
   class; across the two classes the link is a shared fluid and the sum
   can exceed the horizon only if the recording drifted from the model
   (Nocprof.check enforces the bound per class). *)
let link_stats t =
  let tbl : (N.link, link_stat ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun b ->
      let st =
        match Hashtbl.find_opt tbl b.b_link with
        | Some st -> st
        | None ->
            let st =
              ref
                { ls_link = b.b_link;
                  ls_bandwidth = N.link_bandwidth t.noc b.b_link;
                  ls_volume = 0.; ls_preload = 0.; ls_distribute = 0.;
                  ls_exchange = 0.; ls_busy = 0.; ls_bookings = 0 }
            in
            Hashtbl.add tbl b.b_link st;
            st
      in
      let s = !st in
      st :=
        { s with
          ls_volume = s.ls_volume +. b.b_bytes;
          ls_preload =
            (s.ls_preload +. if b.b_cls = Preload then b.b_bytes else 0.);
          ls_distribute =
            (s.ls_distribute +. if b.b_cls = Distribute then b.b_bytes else 0.);
          ls_exchange =
            (s.ls_exchange +. if b.b_cls = Exchange then b.b_bytes else 0.);
          ls_busy = s.ls_busy +. Float.max 0. (b.b_end -. b.b_start);
          ls_bookings = s.ls_bookings + 1;
        })
    (List.rev t.bookings);
  Hashtbl.fold (fun _ st acc -> !st :: acc) tbl []
  |> List.sort (fun a b -> N.compare_link a.ls_link b.ls_link)

(* Busy intervals of one link, chronological, one list per class. *)
let busy_intervals t ~link =
  let pre = ref [] and exch = ref [] in
  List.iter
    (fun b ->
      if b.b_link = link then
        let iv = (b.b_start, b.b_end) in
        match b.b_cls with
        | Preload -> pre := iv :: !pre
        | Distribute | Exchange -> exch := iv :: !exch)
    t.bookings;
  let by_start l = List.sort (fun (a, _) (b, _) -> Float.compare a b) l in
  (by_start !pre, by_start !exch)

let class_bytes t ~cls =
  List.fold_left
    (fun a tr -> if tr.t_cls = cls then a +. tr.t_bytes else a)
    0. t.transfers

let total_transfer_bytes t =
  List.fold_left (fun a tr -> a +. tr.t_bytes) 0. t.transfers

(* Hop-count histogram: [(hops, transfers, bytes)] sorted by hops. *)
let hop_histogram t =
  let tbl : (int, (int * float) ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun tr ->
      match Hashtbl.find_opt tbl tr.t_hops with
      | Some r ->
          let n, b = !r in
          r := (n + 1, b +. tr.t_bytes)
      | None -> Hashtbl.add tbl tr.t_hops (ref (1, tr.t_bytes)))
    t.transfers;
  Hashtbl.fold (fun h r acc -> (h, fst !r, snd !r) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

(* Max queueing wait per (op, class) — the quantity Critpath caps into
   an event's [port_wait]. *)
let max_wait t ~op ~cls =
  List.fold_left
    (fun a tr -> if tr.t_op = op && tr.t_cls = cls then Float.max a tr.t_wait else a)
    0. t.transfers
