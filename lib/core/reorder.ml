open Elk_model

let kendall_tau a b =
  if List.sort compare a <> List.sort compare b then
    invalid_arg "Reorder.kendall_tau: not permutations of the same set";
  let posb = Hashtbl.create 16 in
  List.iteri (fun i x -> Hashtbl.replace posb x i) b;
  let arr = Array.of_list (List.map (Hashtbl.find posb) a) in
  let n = Array.length arr in
  let count = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if arr.(i) > arr.(j) then incr count
    done
  done;
  !count

let valid_suffix_orders ~capacity ~items ?(max_orders = 5000) () =
  let results = ref [] and count = ref 0 in
  (* [chosen] accumulates operators from last-preloaded to first; [remaining]
     are operators whose preload position is still open. *)
  let rec go remaining chosen =
    if !count >= max_orders then ()
    else
      match remaining with
      | [] ->
          results := chosen :: !results;
          incr count
      | _ ->
          List.iter
            (fun (x, _) ->
              let coresident =
                List.filter (fun (y, _) -> y = x || y > x) remaining
              in
              let space = List.fold_left (fun a (_, s) -> a +. s) 0. coresident in
              if space <= capacity then
                go (List.filter (fun (y, _) -> y <> x) remaining) (x :: chosen))
            remaining
  in
  go items [];
  !results

let template_layer_heavy graph =
  let heavy = Graph.hbm_heavy_ids graph in
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun id ->
      match (Graph.get graph id).Graph.layer with
      | Some l ->
          let cur = try Hashtbl.find by_layer l with Not_found -> [] in
          Hashtbl.replace by_layer l (id :: cur)
      | None -> ())
    heavy;
  let best =
    Hashtbl.fold
      (fun l ids acc ->
        let n = List.length ids in
        match acc with
        | Some (_, bn) when bn > n -> acc
        | Some (bl, bn) when bn = n && bl <= l -> acc
        | _ -> Some (l, n))
      by_layer None
  in
  match best with
  | None -> []
  | Some (l, _) -> List.sort compare (Hashtbl.find by_layer l)

let candidate_orders ?(max_orders = 64) ?(max_edit_distance = 6) ctx graph =
  let n = Graph.length graph in
  let identity = Array.init n (fun i -> i) in
  let template = template_layer_heavy graph in
  if List.length template < 2 then [ identity ]
  else begin
    let chip = Elk_partition.Partition.ctx_chip ctx in
    let capacity = Elk_arch.Arch.usable_sram_per_core chip in
    let items =
      List.map (fun id -> (id, Alloc.min_preload_space ctx (Graph.get graph id))) template
    in
    let per_layer_orders =
      valid_suffix_orders ~capacity ~items ~max_orders:2000 ()
      |> List.filter (fun order ->
             order <> template && kendall_tau order template <= max_edit_distance)
    in
    (* Permutations expressed as index mappings relative to the template so
       they can be replicated onto every layer with matching roles. *)
    let template_arr = Array.of_list template in
    let template_roles =
      Array.map (fun id -> (Graph.get graph id).Graph.role) template_arr
    in
    let as_indices order =
      List.map
        (fun id ->
          let rec find i = if template_arr.(i) = id then i else find (i + 1) in
          find 0)
        order
    in
    let heavy = Graph.hbm_heavy_ids graph in
    let heavy_by_layer = Hashtbl.create 8 in
    List.iter
      (fun id ->
        match (Graph.get graph id).Graph.layer with
        | Some l ->
            let cur = try Hashtbl.find heavy_by_layer l with Not_found -> [] in
            Hashtbl.replace heavy_by_layer l (id :: cur)
        | None -> ())
      heavy;
    let layers =
      Hashtbl.fold (fun l ids acc -> (l, List.sort compare ids) :: acc) heavy_by_layer []
      |> List.sort compare
    in
    let apply perm_indices =
      let order = Array.copy identity in
      List.iter
        (fun (_, ids) ->
          let ids_arr = Array.of_list ids in
          let roles = Array.map (fun id -> (Graph.get graph id).Graph.role) ids_arr in
          if roles = template_roles then begin
            (* The slots (preload positions) stay those of the execution
               order; the heavy ops fill them in permuted order. *)
            let slots = ids_arr in
            List.iteri (fun slot_i src_i -> order.(slots.(slot_i)) <- ids_arr.(src_i))
              perm_indices
          end)
        layers;
      order
    in
    let permuted =
      List.filteri (fun i _ -> i < max_orders - 1) per_layer_orders
      |> List.map (fun o -> apply (as_indices o))
    in
    identity :: permuted
  end
