

type op_entry = {
  node_id : int;
  plan : Elk_partition.Partition.plan;
  popt : Elk_partition.Partition.preload_opt;
  preload_len : float;
  dist_time : float;
}

type t = {
  graph : Elk_model.Graph.t;
  order : int array;
  windows : int array;
  entries : op_entry array;
  est_total : float;
}

let num_ops t = Array.length t.entries

let position_of t =
  let n = num_ops t in
  let pos = Array.make n (-1) in
  Array.iteri (fun k id -> pos.(id) <- k) t.order;
  pos

let preload_step t =
  let n = num_ops t in
  let step = Array.make n 0 in
  let k = ref 0 in
  Array.iteri
    (fun i w ->
      for _ = 1 to w do
        if !k < n then begin
          step.(!k) <- i;
          incr k
        end
      done)
    t.windows;
  step

(* A duration or estimate is admissible when it is a finite, non-negative
   float: NaN, infinities, and negative times all denote a broken
   schedule that would silently corrupt the timeline evaluation. *)
let bad_time v = not (Float.is_finite v) || v < 0.

let numeric_check t =
  if bad_time t.est_total then Error "non-finite or negative est_total"
  else
    Array.fold_left
      (fun acc e ->
        match acc with
        | Error _ -> acc
        | Ok () ->
            if bad_time e.preload_len then
              Error (Printf.sprintf "op %d: non-finite or negative preload_len" e.node_id)
            else if bad_time e.dist_time then
              Error (Printf.sprintf "op %d: non-finite or negative dist_time" e.node_id)
            else Ok ())
      (Ok ()) t.entries

let validate t =
  let n = num_ops t in
  if n = 0 then Error "empty schedule: no operators"
  else if Elk_model.Graph.length t.graph <> n then Error "entry count mismatch with graph"
  else if Array.length t.order <> n then Error "order length mismatch"
  else if Array.length t.windows <> n + 1 then Error "windows length must be N+1"
  else if Array.exists (fun w -> w < 0) t.windows then Error "negative window"
  else if Array.fold_left ( + ) 0 t.windows <> n then Error "windows do not sum to N"
  else
    match numeric_check t with
    | Error _ as e -> e
    | Ok () ->
    match Array.find_opt (fun id -> id < 0 || id >= n) t.order with
    | Some id -> Error (Printf.sprintf "order names op %d, outside [0, %d)" id n)
    | None ->
    let pos = position_of t in
    if Array.exists (fun p -> p < 0) pos then Error "order is not a permutation"
    else begin
      let bad = ref None in
      Array.iteri
        (fun id e -> if e.node_id <> id then bad := Some "entry id mismatch")
        t.entries;
      match !bad with
      | Some m -> Error m
      | None ->
          (* Every operator must be fully issued before its execution step:
             the step that contains its preload position must be at most its
             own execution step (step i issues before executing op i). *)
          (* Op [id] executes at 1-based step [id+1]; a preload issued in
             window [w] starts during the execution of step [w], so the
             latest window that can still complete before op [id] executes
             is window [id] (overlapping the previous op's execution). *)
          let step = preload_step t in
          let ok = ref (Ok ()) in
          Array.iteri
            (fun id p ->
              if step.(p) > id then
                ok :=
                  Error
                    (Printf.sprintf "op %d preloaded in window %d, too late for its execution"
                       id step.(p)))
            pos;
          !ok
    end
