open Elk_arch

type node = Core of int | Hbm of int

type link =
  | Port_in of node
  | Port_out of node
  | Edge of { from_core : int; to_core : int }
  | Hbm_edge of { ctrl : int; entry : int }
  | L2_fabric

type path = {
  src : node;
  dst : node;
  ids : int array;
  latency : float;
  bottleneck : float;
}

module Int_tbl = Hashtbl.Make (Int)

(* Links carry dense ids, assigned at construction in compare_link order
   (structural order: the constant L2_fabric first, then constructors in
   declaration order, then fields in order), so id order is the canonical
   order.  The ids form blocks:
     all-to-all, clustered: [l2_fabric] port_in(core 0..n-1)
       port_out(core 0..n-1) port_out(hbm 0..h-1)
     mesh: port_out(hbm 0..h-1), edges by (from, to), hbm edges by
       (ctrl, entry)
   and [link_id] finds an id from the block offsets.  [paths] holds the
   routes this instance has been asked for, keyed by the (src, dst) node
   pair: a sparse table filled on first use, never all node pairs.  The
   device program's routes are arrays of its entries, each filled on
   first use: the rings by ring size, the preload fan-out once. *)
type t = {
  chip : Arch.chip;
  rows : int;
  cols : int;
  ports : int;  (* id of port_in(core 0); -1 on a mesh *)
  ctrl_out : int;  (* id of port_out(hbm 0) *)
  edge_base : int array;
      (* mesh: ids edge_base.(c) to edge_base.(c + 1) - 1 are core c's
         outgoing edges *)
  entry_base : int array;
      (* mesh: ids entry_base.(h) to entry_base.(h + 1) - 1 are
         controller h's entry edges *)
  links : link array;  (* by id *)
  paths : path Int_tbl.t;
  dist_rings : path array option array;  (* by ring size, 0 .. cores *)
  ex_rings : path array option array;
  mutable preload : path array option;
}

let chip t = t.chip
let cores t = t.chip.Arch.cores
let is_mesh t = match t.chip.Arch.topology with Arch.Mesh2d _ -> true | _ -> false

let cluster_of t c =
  match t.chip.Arch.topology with
  | Arch.Clustered { cluster_size; _ } -> Some (c / cluster_size)
  | _ -> None

let validate_node t = function
  | Core c -> c >= 0 && c < cores t
  | Hbm h -> h >= 0 && h < t.chip.Arch.hbm_controllers

let check_node t n fn =
  if not (validate_node t n) then invalid_arg ("Noc." ^ fn ^ ": unknown node")

let per_ctrl_bw t =
  t.chip.Arch.hbm_bandwidth /. float_of_int t.chip.Arch.hbm_controllers

(* Mesh geometry: core i sits at (i / cols, i mod cols).  Controller h
   enters the mesh at an evenly spaced boundary core of row 0 or the last
   row, alternating sides. *)
let coord t c = (c / t.cols, c mod t.cols)
let core_at t r c = (r * t.cols) + c

(* Controller [h] owns a strip of boundary cores: even controllers on the
   top row, odd on the bottom, strips tiling the columns.  A preload to a
   destination core enters the mesh at the strip core closest to the
   destination's column, so injection spreads over the whole strip. *)
let ctrl_strip t h =
  let nc = t.chip.Arch.hbm_controllers in
  let per_side = (nc + 1) / 2 in
  let idx = h / 2 in
  let lo = idx * t.cols / per_side in
  let hi = min (t.cols - 1) (((idx + 1) * t.cols / per_side) - 1) in
  let row = if h mod 2 = 0 then 0 else t.rows - 1 in
  (row, lo, max lo hi)

let entry_core_for t h dst =
  let row, lo, hi = ctrl_strip t h in
  let _, dst_col = coord t dst in
  core_at t row (max lo (min hi dst_col))

(* A mesh core's neighbours in ascending core order: up, left, right,
   down. *)
let neighbours t c =
  let r, col = coord t c in
  List.filter_map
    (fun (ok, n) -> if ok then Some n else None)
    [ (r > 0, c - t.cols); (col > 0, c - 1); (col < t.cols - 1, c + 1);
      (r < t.rows - 1, c + t.cols) ]

let create chip =
  (match Arch.validate_chip chip with
  | Ok () -> ()
  | Error m -> invalid_arg ("Noc.create: " ^ m));
  let n = chip.Arch.cores and nc = chip.Arch.hbm_controllers in
  let rev = ref [] and next = ref 0 in
  let add l =
    rev := l :: !rev;
    incr next
  in
  let ctrl_ports () =
    let first = !next in
    for h = 0 to nc - 1 do
      add (Port_out (Hbm h))
    done;
    first
  in
  let t =
    { chip; rows = 1; cols = n; ports = -1; ctrl_out = 0; edge_base = [||];
      entry_base = [||]; links = [||]; paths = Int_tbl.create 64;
      dist_rings = Array.make (n + 1) None; ex_rings = Array.make (n + 1) None; preload = None }
  in
  let t =
    match chip.Arch.topology with
    | Arch.All_to_all | Arch.Clustered _ ->
        if cluster_of t 0 <> None then add L2_fabric;
        let ports = !next in
        for c = 0 to n - 1 do
          add (Port_in (Core c))
        done;
        for c = 0 to n - 1 do
          add (Port_out (Core c))
        done;
        { t with ports; ctrl_out = ctrl_ports () }
    | Arch.Mesh2d { rows; cols } ->
        let t = { t with rows; cols; ctrl_out = ctrl_ports () } in
        let edge_base = Array.make (n + 1) 0 in
        for c = 0 to n - 1 do
          edge_base.(c) <- !next;
          List.iter (fun d -> add (Edge { from_core = c; to_core = d })) (neighbours t c)
        done;
        edge_base.(n) <- !next;
        let entry_base = Array.make (nc + 1) 0 in
        for h = 0 to nc - 1 do
          entry_base.(h) <- !next;
          let row, lo, hi = ctrl_strip t h in
          for col = lo to hi do
            add (Hbm_edge { ctrl = h; entry = core_at t row col })
          done
        done;
        entry_base.(nc) <- !next;
        { t with edge_base; entry_base }
  in
  { t with links = Array.of_list (List.rev !rev) }

let num_links t = Array.length t.links

let link_of_id t id =
  if id < 0 || id >= num_links t then invalid_arg "Noc.link_of_id: no such link id";
  t.links.(id)

(* The id of [l], or -1 when [l] is not a link of this chip. *)
let find_id t l =
  let core c = c >= 0 && c < cores t in
  let ctrl h = h >= 0 && h < t.chip.Arch.hbm_controllers in
  (* A mesh link lies in a short block of ids: scan it. *)
  let rec scan id last =
    if id > last then -1 else if t.links.(id) = l then id else scan (id + 1) last
  in
  match l with
  | L2_fabric when cluster_of t 0 <> None -> 0
  | Port_in (Core c) when t.ports >= 0 && core c -> t.ports + c
  | Port_out (Core c) when t.ports >= 0 && core c -> t.ports + cores t + c
  | Port_out (Hbm h) when ctrl h -> t.ctrl_out + h
  | Edge { from_core = c; _ } when is_mesh t && core c ->
      scan t.edge_base.(c) (t.edge_base.(c + 1) - 1)
  | Hbm_edge { ctrl = h; _ } when is_mesh t && ctrl h ->
      scan t.entry_base.(h) (t.entry_base.(h + 1) - 1)
  | _ -> -1

let link_name (l : link) =
  match l with
  | Port_in (Core c) -> Printf.sprintf "port_in(core %d)" c
  | Port_in (Hbm h) -> Printf.sprintf "port_in(hbm %d)" h
  | Port_out (Core c) -> Printf.sprintf "port_out(core %d)" c
  | Port_out (Hbm h) -> Printf.sprintf "port_out(hbm %d)" h
  | Edge { from_core; to_core } -> Printf.sprintf "edge(%d->%d)" from_core to_core
  | Hbm_edge { ctrl; entry } -> Printf.sprintf "hbm_edge(%d->%d)" ctrl entry
  | L2_fabric -> "l2_fabric"

let link_id t l =
  let id = find_id t l in
  if id < 0 then invalid_arg ("Noc.link_id: " ^ link_name l ^ " is not a link of this chip");
  id

let link_bandwidth t = function
  | Port_in (Core _) | Port_out (Core _) -> t.chip.Arch.intercore_link.Arch.bandwidth
  | Port_in (Hbm _) | Port_out (Hbm _) -> per_ctrl_bw t
  | Edge _ -> t.chip.Arch.intercore_link.Arch.bandwidth
  | Hbm_edge _ ->
      (* The controller's pipe into its boundary strip runs at the
         controller's rate; the mesh-internal hops behind the entry are
         where the delivery contends. *)
      per_ctrl_bw t
  | L2_fabric -> (
      match t.chip.Arch.topology with
      | Arch.Clustered { l2_bandwidth; _ } -> l2_bandwidth
      | _ -> invalid_arg "Noc.link_bandwidth: L2 on a non-clustered chip")

let mesh_route t src dst =
  (* Dimension-order: walk columns first, then rows. *)
  let r0, c0 = coord t src and r1, c1 = coord t dst in
  let edges = ref [] in
  let cur_r = ref r0 and cur_c = ref c0 in
  while !cur_c <> c1 do
    let next = if c1 > !cur_c then !cur_c + 1 else !cur_c - 1 in
    edges := Edge { from_core = core_at t !cur_r !cur_c; to_core = core_at t !cur_r next } :: !edges;
    cur_c := next
  done;
  while !cur_r <> r1 do
    let next = if r1 > !cur_r then !cur_r + 1 else !cur_r - 1 in
    edges := Edge { from_core = core_at t !cur_r !cur_c; to_core = core_at t next !cur_c } :: !edges;
    cur_r := next
  done;
  List.rev !edges

let compute_route t ~src ~dst =
  if src = dst then []
  else
    match (src, dst) with
    | _, Hbm _ -> invalid_arg "Noc.route: HBM controllers only send"
    | Core s, Core d -> (
        if is_mesh t then mesh_route t s d
        else
          match (cluster_of t s, cluster_of t d) with
          | Some cs, Some cd when cs <> cd ->
              (* Inter-cluster traffic crosses the shared L2 fabric. *)
              [ Port_out (Core s); L2_fabric; Port_in (Core d) ]
          | _ -> [ Port_out (Core s); Port_in (Core d) ])
    | Hbm h, Core d ->
        if is_mesh t then
          let entry = entry_core_for t h d in
          Port_out (Hbm h) :: Hbm_edge { ctrl = h; entry } :: mesh_route t entry d
        else if cluster_of t d <> None then
          (* GPU-style: HBM sits behind the L2. *)
          [ Port_out (Hbm h); L2_fabric; Port_in (Core d) ]
        else [ Port_out (Hbm h); Port_in (Core d) ]

let node_index t = function Core c -> c | Hbm h -> cores t + h

let path t ~src ~dst =
  check_node t src "route";
  check_node t dst "route";
  let key =
    (node_index t src * (cores t + t.chip.Arch.hbm_controllers)) + node_index t dst
  in
  match Int_tbl.find t.paths key with
  | p -> p
  | exception Not_found ->
      let route = compute_route t ~src ~dst in
      let p =
        {
          src;
          dst;
          ids = Array.of_list (List.map (link_id t) route);
          latency =
            float_of_int (max 1 (List.length route)) *. t.chip.Arch.intercore_link.Arch.latency;
          bottleneck =
            List.fold_left (fun bw l -> Float.min bw (link_bandwidth t l)) infinity route;
        }
      in
      Int_tbl.add t.paths key p;
      p

let route t ~src ~dst = Array.fold_right (fun id r -> t.links.(id) :: r) (path t ~src ~dst).ids []
let hops t ~src ~dst = Array.length (path t ~src ~dst).ids

let[@inline] path_time p ~bytes =
  if bytes < 0. then invalid_arg "Noc.path_time: negative size";
  if Array.length p.ids = 0 then 0. else p.latency +. (bytes /. p.bottleneck)

let transfer_time t ~src ~dst ~bytes = path_time (path t ~src ~dst) ~bytes

let hbm_ctrl_for_core t c =
  check_node t (Core c) "hbm_ctrl_for_core";
  Hbm (c mod t.chip.Arch.hbm_controllers)

(* Core [c]'s route from core [(c + shift) mod ncores], by core, kept in
   [rings] by ring size. *)
let ring t rings fn ~ncores ~shift =
  if ncores < 0 || ncores > cores t then invalid_arg ("Noc." ^ fn ^ ": ring size out of range");
  match rings.(ncores) with
  | Some paths -> paths
  | None ->
      let paths =
        Array.init ncores (fun c -> path t ~src:(Core ((c + shift) mod ncores)) ~dst:(Core c))
      in
      rings.(ncores) <- Some paths;
      paths

let distribution_ring t ~ncores = ring t t.dist_rings "distribution_ring" ~ncores ~shift:1
let exchange_ring t ~ncores = ring t t.ex_rings "exchange_ring" ~ncores ~shift:(ncores - 1)

let preload_routes t =
  match t.preload with
  | Some paths -> paths
  | None ->
      let paths =
        Array.init (cores t) (fun c -> path t ~src:(hbm_ctrl_for_core t c) ~dst:(Core c))
      in
      t.preload <- Some paths;
      paths

(* Structural compare is a total order on this variant (constructor
   declaration order, then field order) — deterministic, independent of
   hash-table layout, and stable across runs and worker counts.  Link
   ids follow it. *)
let compare_link (a : link) (b : link) = Stdlib.compare a b

module Load = struct
  type loads = { noc : t; volume : float array; touched : bool array }

  let create noc =
    let n = num_links noc in
    { noc; volume = Array.make n 0.; touched = Array.make n false }

  let add_path l p ~bytes =
    if bytes < 0. then invalid_arg "Noc.Load.add_path: negative size";
    let ids = p.ids in
    for k = 0 to Array.length ids - 1 do
      let id = ids.(k) in
      l.volume.(id) <- l.volume.(id) +. bytes;
      l.touched.(id) <- true
    done

  let add l ~src ~dst ~bytes = add_path l (path l.noc ~src ~dst) ~bytes

  let volume_on l link =
    let id = find_id l.noc link in
    if id < 0 then 0. else l.volume.(id)

  (* Canonical iteration over per-link volumes: id order is compare_link
     order, so every consumer (busiest link, profiles, reports) sees links
     in one deterministic order. *)
  let fold l f init =
    let acc = ref init in
    Array.iteri
      (fun id touched -> if touched then acc := f !acc l.noc.links.(id) l.volume.(id))
      l.touched;
    !acc

  let busiest l =
    fold l
      (fun acc link vol ->
        let time = vol /. link_bandwidth l.noc link in
        match acc with
        | Some (_, best) when best >= time -> acc
        | _ -> Some (link, time))
      None
end
