type 'a point = { x : float; y : float; payload : 'a }

let frontier pts =
  (* Sort by (x, y) — [Float.compare] orders floats as the polymorphic
     [compare] does, NaN lowest — then a single left-to-right scan keeps a
     point iff its y strictly improves on the best y seen so far. *)
  let sorted =
    List.stable_sort
      (fun a b -> match Float.compare a.x b.x with 0 -> Float.compare a.y b.y | c -> c)
      pts
  in
  let rec scan best acc = function
    | [] -> List.rev acc
    | p :: rest -> if p.y < best then scan p.y (p :: acc) rest else scan best acc rest
  in
  scan infinity [] sorted

let is_frontier pts =
  let rec go = function
    | a :: (b :: _ as rest) -> a.x < b.x && a.y > b.y && go rest
    | [ _ ] | [] -> true
  in
  go pts

let best_y_under_x pts budget =
  List.fold_left
    (fun best p ->
      if p.x > budget then best
      else
        match best with
        | Some b when b.y <= p.y -> best
        | _ -> Some p)
    None pts

let min_x = function
  | [] -> None
  | p :: rest -> Some (List.fold_left (fun a b -> if b.x < a.x then b else a) p rest)

let min_y = function
  | [] -> None
  | p :: rest -> Some (List.fold_left (fun a b -> if b.y < a.y then b else a) p rest)
