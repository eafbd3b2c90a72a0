(* Channel-dependency-graph deadlock analysis over the exchange schedule.

   Classic CDG construction (Dally & Seitz): nodes are interconnect
   links; a transfer whose route acquires link L1 immediately before L2
   contributes the edge L1 -> L2 (holding L1 while waiting for L2).
   A cycle in the CDG is a potential circular wait — every link on the
   cycle held by a transfer that waits for the next.

   The transfers are the plan's communication phases, re-expanded from
   the per-op contraction the Hb DAG uses to per-transfer granularity:
   each core's route on the op's distribution ring and on its exchange
   ring, as Noc defines them ([Noc.distribution_ring],
   [Noc.exchange_ring]), when the phase moves bytes — exactly the
   routes the simulator books.  Phases are barrier-separated (an
   execute's distribution completes before its compute, which
   completes before its exchange, and executes are serialized), so only
   same-phase transfers can hold links concurrently: the CDG is built
   per phase and an edge records the (op, phase) that contributed it
   for the diagnostic.

   On the deployed topologies the analysis proves the absence of
   deadlock: XY dimension-order routing on the mesh orders link
   acquisitions lexicographically (X-edges before Y-edges, monotone
   coordinates) and the all-to-all fabric is bipartite
   (Port_out -> Port_in only), both acyclic by construction.  The rule
   exists for what the machine model cannot promise: hand-written
   route tables and future adaptive-routing or fused multi-op phases. *)

module S = Elk.Schedule
module P = Elk_partition.Partition
module N = Elk_noc.Noc

type phase = Dist | Exch

let phase_name = function Dist -> "distribute" | Exch -> "exchange"

type transfer = { t_op : int; t_phase : phase; t_route : N.link list }

(* The plan's communication transfers: every non-empty route of each
   op's Noc distribution and exchange rings when the phase moves bytes,
   op by op, distribution first, cores ascending. *)
let transfers_of_schedule (noc : N.t) (s : S.t) =
  List.concat
    (List.init (S.num_ops s) (fun op ->
         let e = s.S.entries.(op) in
         let ncores = min e.S.plan.P.cores_used (N.cores noc) in
         let ring t_phase bytes routes =
           if bytes > 0. then
             List.filter_map
               (fun (p : N.path) ->
                 if Array.length p.N.ids = 0 then None
                 else Some { t_op = op; t_phase; t_route = N.route noc ~src:p.N.src ~dst:p.N.dst })
               (Array.to_list (routes noc ~ncores))
           else []
         in
         ring Dist e.S.popt.P.dist_bytes_per_core N.distribution_ring
         @ ring Exch e.S.plan.P.exchange_bytes_per_core N.exchange_ring))

type cycle = {
  cy_links : N.link list;  (* the circular wait, in acquisition order *)
  cy_ops : (int * phase) list;  (* one (op, phase) per CDG edge on the cycle *)
}

(* Build the CDG of one phase's transfers and search for a cycle with an
   iterative 3-color DFS; deterministic: links are indexed in first-seen
   order over the (deterministic) transfer list, and successors are
   scanned in insertion order. *)
let find_cycle transfers =
  let link_ix = Hashtbl.create 64 in
  let links = ref [] and n_links = ref 0 in
  let ix l =
    match Hashtbl.find_opt link_ix l with
    | Some i -> i
    | None ->
        let i = !n_links in
        Hashtbl.replace link_ix l i;
        links := l :: !links;
        incr n_links;
        i
  in
  (* adjacency with the contributing (op, phase) per edge; dedup edges *)
  let adj = Hashtbl.create 64 in
  let seen_edge = Hashtbl.create 64 in
  List.iter
    (fun t ->
      (* a route that acquires the same link twice is reported by
         deadlock.self-loop; still index every link *)
      let rec pairs = function
        | l1 :: (l2 :: _ as tl) ->
            let u = ix l1 and v = ix l2 in
            if not (Hashtbl.mem seen_edge (u, v)) then begin
              Hashtbl.replace seen_edge (u, v) ();
              Hashtbl.replace adj u
                ((v, (t.t_op, t.t_phase))
                :: (Hashtbl.find_opt adj u |> Option.value ~default:[]))
            end;
            pairs tl
        | [ l ] -> ignore (ix l)
        | [] -> ()
      in
      pairs t.t_route)
    transfers;
  let links = Array.of_list (List.rev !links) in
  let v = Array.length links in
  let color = Array.make v 0 in
  (* 0 white, 1 grey, 2 black *)
  let result = ref None in
  let rec dfs stack u =
    if !result = None then begin
      color.(u) <- 1;
      List.iter
        (fun (w, tag) ->
          if !result = None then
            if color.(w) = 1 then begin
              (* found: unwind [stack] back to w for the cycle *)
              let rec cut acc = function
                | (x, t) :: tl ->
                    let acc = (x, t) :: acc in
                    if x = w then acc else cut acc tl
                | [] -> acc
              in
              let cyc = cut [] ((u, tag) :: stack) in
              result :=
                Some
                  {
                    cy_links = List.map (fun (x, _) -> links.(x)) cyc;
                    cy_ops = List.map snd cyc;
                  }
            end
            else if color.(w) = 0 then dfs ((u, tag) :: stack) w)
        (List.rev (Hashtbl.find_opt adj u |> Option.value ~default:[]));
      if color.(u) = 1 then color.(u) <- 2
    end
  in
  for u = 0 to v - 1 do
    if color.(u) = 0 && !result = None then dfs [] u
  done;
  !result

let route_self_loop t =
  let rec dup seen = function
    | [] -> None
    | l :: tl -> if List.mem l seen then Some l else dup (l :: seen) tl
  in
  dup [] t.t_route

let check ~emit ~on (noc : N.t) (s : S.t) =
  let transfers = transfers_of_schedule noc s in
  if on "deadlock.self-loop" then
    List.iter
      (fun t ->
        match route_self_loop t with
        | None -> ()
        | Some l ->
            emit "deadlock.self-loop" (Diag.at_op t.t_op)
              [ ("link", Diag.Str (N.link_name l)) ]
              (Printf.sprintf
                 "%s transfer of op %d acquires %s twice along its route"
                 (phase_name t.t_phase) t.t_op (N.link_name l)))
      transfers;
  if on "deadlock.cycle" then
    (* Only transfers of the same operator and phase ever hold links
       concurrently (phases are barrier-separated and executes are
       serialized), so each (op, phase) group gets its own CDG. *)
    let groups =
      List.sort_uniq compare (List.map (fun t -> (t.t_op, t.t_phase)) transfers)
    in
    List.iter
      (fun (gop, ph) ->
        let phase_transfers =
          List.filter (fun t -> t.t_phase = ph && t.t_op = gop) transfers
        in
        match find_cycle phase_transfers with
        | None -> ()
        | Some cyc ->
            let ops =
              List.sort_uniq compare (List.map fst cyc.cy_ops)
            in
            emit "deadlock.cycle"
              (match ops with o :: _ -> Diag.at_op o | [] -> Diag.no_loc)
              [
                ("phase", Diag.Str (phase_name ph));
                ("cycle_len", Diag.Int (List.length cyc.cy_links));
                ( "ops",
                  Diag.Str (String.concat "," (List.map string_of_int ops)) );
              ]
              (Printf.sprintf
                 "channel-dependency cycle in the %s phase: %s (ops %s can \
                  each hold a link the next waits for)"
                 (phase_name ph)
                 (String.concat " -> " (List.map N.link_name cyc.cy_links))
                 (String.concat ", " (List.map string_of_int ops))))
      groups
