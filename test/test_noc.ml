open Elk_noc
open Elk_arch

let a2a () = Noc.create (Arch.Presets.scaled_chip ())
let mesh () = Noc.create (Arch.Presets.scaled_chip ~topology_kind:`Mesh ())

let test_create_rejects_invalid () =
  let bad = { (Arch.Presets.scaled_chip ()) with Arch.cores = -1 } in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Noc.create bad);
       false
     with Invalid_argument _ -> true)

let test_validate_node () =
  let t = a2a () in
  Alcotest.(check bool) "core ok" true (Noc.validate_node t (Noc.Core 0));
  Alcotest.(check bool) "core oob" false (Noc.validate_node t (Noc.Core 64));
  Alcotest.(check bool) "hbm ok" true (Noc.validate_node t (Noc.Hbm 3));
  Alcotest.(check bool) "hbm oob" false (Noc.validate_node t (Noc.Hbm 4))

let test_a2a_route () =
  let t = a2a () in
  let r = Noc.route t ~src:(Noc.Core 3) ~dst:(Noc.Core 11) in
  Alcotest.(check int) "two ports" 2 (List.length r);
  Alcotest.(check bool) "out then in" true
    (r = [ Noc.Port_out (Noc.Core 3); Noc.Port_in (Noc.Core 11) ])

let test_self_route_empty () =
  let t = a2a () in
  Alcotest.(check int) "empty" 0 (List.length (Noc.route t ~src:(Noc.Core 5) ~dst:(Noc.Core 5)));
  Tu.check_float "zero time" 0. (Noc.transfer_time t ~src:(Noc.Core 5) ~dst:(Noc.Core 5) ~bytes:100.)

let test_route_to_hbm_rejected () =
  let t = a2a () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Noc.route t ~src:(Noc.Core 0) ~dst:(Noc.Hbm 0));
       false
     with Invalid_argument _ -> true)

let test_mesh_route_xy () =
  let t = mesh () in
  (* 8x8 mesh: core 0 = (0,0), core 27 = (3,3): 3 column hops + 3 row hops. *)
  let r = Noc.route t ~src:(Noc.Core 0) ~dst:(Noc.Core 27) in
  Alcotest.(check int) "manhattan hops" 6 (List.length r);
  List.iter
    (fun l -> match l with Noc.Edge _ -> () | _ -> Alcotest.fail "expected mesh edges")
    r

let test_mesh_route_adjacent () =
  let t = mesh () in
  Alcotest.(check int) "neighbor 1 hop" 1
    (List.length (Noc.route t ~src:(Noc.Core 0) ~dst:(Noc.Core 1)))

let test_mesh_hbm_route () =
  let t = mesh () in
  let r = Noc.route t ~src:(Noc.Hbm 0) ~dst:(Noc.Core 63) in
  (match r with
  | Noc.Port_out (Noc.Hbm 0) :: Noc.Hbm_edge _ :: _ -> ()
  | _ -> Alcotest.fail "expected controller port then entry edge");
  Alcotest.(check bool) "reaches far corner" true (List.length r >= 3)

let test_a2a_hbm_bandwidths () =
  let t = a2a () in
  let chip = Noc.chip t in
  let per_ctrl = chip.Arch.hbm_bandwidth /. float_of_int chip.Arch.hbm_controllers in
  Tu.check_float "ctrl port at per-controller rate" per_ctrl
    (Noc.link_bandwidth t (Noc.Port_out (Noc.Hbm 0)));
  Tu.check_float "core port at link rate" chip.Arch.intercore_link.Arch.bandwidth
    (Noc.link_bandwidth t (Noc.Port_in (Noc.Core 0)))

let test_transfer_time_formula () =
  let t = a2a () in
  let chip = Noc.chip t in
  let bytes = 1e6 in
  let expect =
    (2. *. chip.Arch.intercore_link.Arch.latency)
    +. (bytes /. chip.Arch.intercore_link.Arch.bandwidth)
  in
  Tu.check_rel "latency + bytes/bw" ~tolerance:1e-9 expect
    (Noc.transfer_time t ~src:(Noc.Core 0) ~dst:(Noc.Core 1) ~bytes)

let test_mesh_farther_is_slower () =
  let t = mesh () in
  let near = Noc.transfer_time t ~src:(Noc.Core 0) ~dst:(Noc.Core 1) ~bytes:1e3 in
  let far = Noc.transfer_time t ~src:(Noc.Core 0) ~dst:(Noc.Core 63) ~bytes:1e3 in
  Alcotest.(check bool) "farther slower" true (far > near)

let test_hbm_ctrl_striping () =
  let t = a2a () in
  Alcotest.(check bool) "striped" true
    (Noc.hbm_ctrl_for_core t 0 = Noc.Hbm 0
    && Noc.hbm_ctrl_for_core t 1 = Noc.Hbm 1
    && Noc.hbm_ctrl_for_core t 4 = Noc.Hbm 0)

let test_load_accounting () =
  let t = a2a () in
  let l = Noc.Load.create t in
  Noc.Load.add l ~src:(Noc.Core 0) ~dst:(Noc.Core 1) ~bytes:100.;
  Noc.Load.add l ~src:(Noc.Core 2) ~dst:(Noc.Core 1) ~bytes:50.;
  Tu.check_float "receiver port accumulates" 150.
    (Noc.Load.volume_on l (Noc.Port_in (Noc.Core 1)));
  Tu.check_float "sender port" 100. (Noc.Load.volume_on l (Noc.Port_out (Noc.Core 0)))

let test_load_makespan_bottleneck () =
  let t = a2a () in
  let chip = Noc.chip t in
  let bw = chip.Arch.intercore_link.Arch.bandwidth in
  let l = Noc.Load.create t in
  (* Two senders into one receiver: the receiver port serializes. *)
  Noc.Load.add l ~src:(Noc.Core 0) ~dst:(Noc.Core 2) ~bytes:1e6;
  Noc.Load.add l ~src:(Noc.Core 1) ~dst:(Noc.Core 2) ~bytes:1e6;
  match Noc.Load.busiest l with
  | Some (Noc.Port_in (Noc.Core 2), time) -> Tu.check_rel "busiest" ~tolerance:1e-9 (2e6 /. bw) time
  | _ -> Alcotest.fail "expected receiver port to be busiest"

let test_load_empty () =
  let t = a2a () in
  let l = Noc.Load.create t in
  Alcotest.(check bool) "no busiest" true (Noc.Load.busiest l = None)

let test_load_fold_canonical () =
  let t = a2a () in
  let l = Noc.Load.create t in
  Noc.Load.add l ~src:(Noc.Core 5) ~dst:(Noc.Core 1) ~bytes:10.;
  Noc.Load.add l ~src:(Noc.Core 0) ~dst:(Noc.Core 3) ~bytes:20.;
  Noc.Load.add l ~src:(Noc.Hbm 0) ~dst:(Noc.Core 2) ~bytes:30.;
  let links = List.rev (Noc.Load.fold l (fun acc link _ -> link :: acc) []) in
  let rec sorted = function
    | a :: (b :: _ as rest) -> Noc.compare_link a b < 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "canonically sorted" true (sorted links);
  Alcotest.(check int) "each touched link appears once" 6 (List.length links);
  Tu.check_float "per-link volume sum (both ports per transfer)" 120.
    (Noc.Load.fold l (fun acc _ v -> acc +. v) 0.);
  (* busiest goes through the same fold: the 30-byte HBM delivery rides
     the faster controller port, so the hottest core port wins. *)
  match Noc.Load.busiest l with
  | Some (Noc.Port_in (Noc.Core 2), _) -> ()
  | _ -> Alcotest.fail "expected port_in(core 2) as busiest"

let qcheck_mesh_route_connects =
  Tu.qtest ~count:80 "noc: mesh XY routes have manhattan length"
    QCheck2.Gen.(pair (int_bound 63) (int_bound 63))
    (fun (s, d) ->
      let t = mesh () in
      let hops = Noc.hops t ~src:(Noc.Core s) ~dst:(Noc.Core d) in
      let manhattan = abs ((s / 8) - (d / 8)) + abs ((s mod 8) - (d mod 8)) in
      hops = manhattan)

let qcheck_transfer_time_monotone =
  Tu.qtest ~count:60 "noc: transfer time grows with volume"
    QCheck2.Gen.(pair (float_range 1. 1e6) (float_range 1. 1e6))
    (fun (b1, b2) ->
      let t = a2a () in
      let f b = Noc.transfer_time t ~src:(Noc.Core 0) ~dst:(Noc.Core 1) ~bytes:b in
      if b1 <= b2 then f b1 <= f b2 else f b2 <= f b1)

let qcheck_transfer_time_monotone_mesh =
  Tu.qtest ~count:60 "noc: mesh transfer time grows with volume"
    QCheck2.Gen.(triple (float_range 1. 1e6) (float_range 1. 1e6)
                   (pair (int_bound 63) (int_bound 63)))
    (fun (b1, b2, (s, d)) ->
      let t = mesh () in
      let f b = Noc.transfer_time t ~src:(Noc.Core s) ~dst:(Noc.Core d) ~bytes:b in
      if b1 <= b2 then f b1 <= f b2 else f b2 <= f b1)

let qcheck_hops_equals_route_length =
  Tu.qtest ~count:80 "noc: hops equals route length on both topologies"
    QCheck2.Gen.(triple bool (int_bound 63) (int_bound 63))
    (fun (use_mesh, s, d) ->
      let t = if use_mesh then mesh () else a2a () in
      let agrees src dst =
        Noc.hops t ~src ~dst = List.length (Noc.route t ~src ~dst)
      in
      agrees (Noc.Core s) (Noc.Core d) && agrees (Noc.Hbm (s mod 4)) (Noc.Core d))

(* XY routes are hop-minimal *and* valid: a chain of unit-distance mesh
   edges from src to dst. *)
let qcheck_mesh_route_valid_path =
  Tu.qtest ~count:80 "noc: mesh XY route is a connected edge path"
    QCheck2.Gen.(pair (int_bound 63) (int_bound 63))
    (fun (s, d) ->
      let t = mesh () in
      let r = Noc.route t ~src:(Noc.Core s) ~dst:(Noc.Core d) in
      let adjacent a b =
        abs ((a / 8) - (b / 8)) + abs ((a mod 8) - (b mod 8)) = 1
      in
      let ok, last =
        List.fold_left
          (fun (ok, cur) l ->
            match l with
            | Noc.Edge { from_core; to_core } ->
                (ok && from_core = cur && adjacent from_core to_core, to_core)
            | _ -> (false, cur))
          (true, s) r
      in
      ok && last = d && (s <> d || r = []))


(* ---- GPU-style clustered fabric ----------------------------------- *)

let clustered () = Noc.create (Arch.Presets.gpu_like_chip ~cores:64 ~clusters:8 ())

let test_cluster_intra_route () =
  let t = clustered () in
  (* Cores 0 and 7 share cluster 0: direct ports, no L2. *)
  let r = Noc.route t ~src:(Noc.Core 0) ~dst:(Noc.Core 7) in
  Alcotest.(check bool) "no L2" true (not (List.mem Noc.L2_fabric r));
  Alcotest.(check int) "two ports" 2 (List.length r)

let test_cluster_inter_route () =
  let t = clustered () in
  (* Cores 0 and 8 are in different clusters: traffic crosses the L2. *)
  let r = Noc.route t ~src:(Noc.Core 0) ~dst:(Noc.Core 8) in
  Alcotest.(check bool) "via L2" true (List.mem Noc.L2_fabric r)

let test_cluster_hbm_via_l2 () =
  let t = clustered () in
  let r = Noc.route t ~src:(Noc.Hbm 0) ~dst:(Noc.Core 3) in
  Alcotest.(check bool) "HBM behind L2" true (List.mem Noc.L2_fabric r)

let test_cluster_l2_bandwidth () =
  let chip = Arch.Presets.gpu_like_chip () in
  let t = Noc.create chip in
  Tu.check_float "L2 bw = HBM bw (paper 7 regime)" chip.Arch.hbm_bandwidth
    (Noc.link_bandwidth t Noc.L2_fabric)

let test_cluster_l2_serializes () =
  let t = clustered () in
  let l = Noc.Load.create t in
  (* Many inter-cluster transfers pile onto the single L2 fabric. *)
  for c = 0 to 7 do
    Noc.Load.add l ~src:(Noc.Core c) ~dst:(Noc.Core (c + 8)) ~bytes:1e6
  done;
  Tu.check_float "L2 carries all" 8e6 (Noc.Load.volume_on l Noc.L2_fabric)

(* ---- dense link ids ----------------------------------------------- *)

(* Ids are dense over 0..n-1, [link_of_id] inverts [link_id], and id
   order is compare_link order for every pair — which keeps Load.fold,
   Noctrace.stats and the Nocprof rows in canonical order.  Every id
   lies on some route, and every route's links have ids. *)
let check_link_ids t =
  let n = Noc.num_links t in
  let links = Array.init n (Noc.link_of_id t) in
  Array.iteri
    (fun i l -> Alcotest.(check int) (Noc.link_name l) i (Noc.link_id t l))
    links;
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          if compare (Noc.link_id t a) (Noc.link_id t b) <> Noc.compare_link a b then
            Alcotest.failf "%s vs %s: id order is not compare_link order"
              (Noc.link_name a) (Noc.link_name b))
        links)
    links;
  let used = Array.make n false in
  let cores = Noc.cores t in
  let ctrls = (Noc.chip t).Arch.hbm_controllers in
  for d = 0 to cores - 1 do
    let mark src =
      List.iter (fun l -> used.(Noc.link_id t l) <- true) (Noc.route t ~src ~dst:(Noc.Core d))
    in
    for s = 0 to cores - 1 do
      mark (Noc.Core s)
    done;
    for h = 0 to ctrls - 1 do
      mark (Noc.Hbm h)
    done
  done;
  Array.iteri
    (fun i u -> if not u then Alcotest.failf "%s is on no route" (Noc.link_name links.(i)))
    used

let test_link_ids_a2a () = check_link_ids (a2a ())
let test_link_ids_mesh () = check_link_ids (mesh ())
let test_link_ids_clustered () = check_link_ids (clustered ())

let test_link_id_rejects_foreign () =
  let raises t l =
    try
      ignore (Noc.link_id t l);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "no mesh edge on a2a" true
    (raises (a2a ()) (Noc.Edge { from_core = 0; to_core = 1 }));
  Alcotest.(check bool) "no core port on a mesh" true
    (raises (mesh ()) (Noc.Port_in (Noc.Core 0)));
  Alcotest.(check bool) "no diagonal edge" true
    (raises (mesh ()) (Noc.Edge { from_core = 0; to_core = 9 }));
  Alcotest.(check bool) "no L2 on a2a" true (raises (a2a ()) Noc.L2_fabric);
  Alcotest.(check bool) "no core 64" true (raises (a2a ()) (Noc.Port_out (Noc.Core 64)))

let suite =
  [
    ("noc: rejects invalid chip", `Quick, test_create_rejects_invalid);
    ("noc: node validation", `Quick, test_validate_node);
    ("noc: all-to-all route", `Quick, test_a2a_route);
    ("noc: self route", `Quick, test_self_route_empty);
    ("noc: core->hbm rejected", `Quick, test_route_to_hbm_rejected);
    ("noc: mesh XY routing", `Quick, test_mesh_route_xy);
    ("noc: mesh adjacency", `Quick, test_mesh_route_adjacent);
    ("noc: mesh HBM entry", `Quick, test_mesh_hbm_route);
    ("noc: link bandwidths", `Quick, test_a2a_hbm_bandwidths);
    ("noc: transfer time formula", `Quick, test_transfer_time_formula);
    ("noc: mesh distance", `Quick, test_mesh_farther_is_slower);
    ("noc: controller striping", `Quick, test_hbm_ctrl_striping);
    ("noc: load accounting", `Quick, test_load_accounting);
    ("noc: makespan bottleneck", `Quick, test_load_makespan_bottleneck);
    ("noc: empty load", `Quick, test_load_empty);
    ("noc: load fold canonical order", `Quick, test_load_fold_canonical);
    ("noc: cluster intra route", `Quick, test_cluster_intra_route);
    ("noc: cluster inter route", `Quick, test_cluster_inter_route);
    ("noc: cluster HBM via L2", `Quick, test_cluster_hbm_via_l2);
    ("noc: cluster L2 bandwidth", `Quick, test_cluster_l2_bandwidth);
    ("noc: cluster L2 serializes", `Quick, test_cluster_l2_serializes);
    ("noc: link ids dense and canonical (all-to-all)", `Quick, test_link_ids_a2a);
    ("noc: link ids dense and canonical (mesh)", `Quick, test_link_ids_mesh);
    ("noc: link ids dense and canonical (clustered)", `Quick, test_link_ids_clustered);
    ("noc: link id rejects foreign links", `Quick, test_link_id_rejects_foreign);
    qcheck_mesh_route_connects;
    qcheck_transfer_time_monotone;
    qcheck_transfer_time_monotone_mesh;
    qcheck_hops_equals_route_length;
    qcheck_mesh_route_valid_path;
  ]
