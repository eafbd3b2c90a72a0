open Elk_util

type node = Leaf of float array | Split of { feat : int; thresh : float; lo : node; hi : node }
type t = { dim : int; root : node }

let leaf_model samples dim =
  (* OLS needs enough rows to be meaningful; small leaves use the mean,
     encoded as a zero-coefficient model with only an intercept. *)
  if List.length samples <= dim + 2 then begin
    let m = Stats.mean (List.map snd samples) in
    let coeffs = Array.make (dim + 1) 0. in
    coeffs.(dim) <- m;
    coeffs
  end
  else Stats.ols samples

let sse_of_mean samples =
  let ys = List.map snd samples in
  let m = Stats.mean ys in
  List.fold_left (fun a y -> a +. ((y -. m) ** 2.)) 0. ys

let candidate_thresholds values =
  let sorted = List.sort_uniq compare values in
  let n = List.length sorted in
  if n < 2 then []
  else
    List.filteri (fun i _ -> i > 0 && i mod (max 1 (n / 8)) = 0) sorted

(* Minimum samples per leaf. *)
let min_leaf = 16

let best_split samples dim =
  let base = sse_of_mean samples in
  let best = ref None in
  for feat = 0 to dim - 1 do
    let values = List.map (fun (f, _) -> f.(feat)) samples in
    List.iter
      (fun thresh ->
        let lo, hi = List.partition (fun (f, _) -> f.(feat) < thresh) samples in
        if List.length lo >= min_leaf && List.length hi >= min_leaf then begin
          let score = base -. (sse_of_mean lo +. sse_of_mean hi) in
          match !best with
          | Some (s, _, _, _, _) when s >= score -> ()
          | _ -> best := Some (score, feat, thresh, lo, hi)
        end)
      (candidate_thresholds values)
  done;
  match !best with
  | Some (score, feat, thresh, lo, hi) when score > base *. 1e-4 -> Some (feat, thresh, lo, hi)
  | _ -> None

let rec grow samples dim ~depth ~max_depth =
  if depth >= max_depth || List.length samples < 2 * min_leaf then
    Leaf (leaf_model samples dim)
  else
    match best_split samples dim with
    | None -> Leaf (leaf_model samples dim)
    | Some (feat, thresh, lo, hi) ->
        Split
          {
            feat;
            thresh;
            lo = grow lo dim ~depth:(depth + 1) ~max_depth;
            hi = grow hi dim ~depth:(depth + 1) ~max_depth;
          }

let fit ?(max_depth = 7) samples =
  (match samples with [] -> invalid_arg "Linear_tree.fit: no samples" | _ -> ());
  let dim = Array.length (fst (List.hd samples)) in
  List.iter
    (fun (f, _) ->
      if Array.length f <> dim then
        invalid_arg "Linear_tree.fit: inconsistent feature dimensions")
    samples;
  { dim; root = grow samples dim ~depth:0 ~max_depth }

let predict t features =
  if Array.length features <> t.dim then
    invalid_arg "Linear_tree.predict: wrong feature dimension";
  let rec go = function
    | Leaf coeffs -> Stats.predict coeffs features
    | Split { feat; thresh; lo; hi } ->
        if features.(feat) < thresh then go lo else go hi
  in
  go t.root

let depth t =
  let rec go = function
    | Leaf _ -> 0
    | Split { lo; hi; _ } -> 1 + max (go lo) (go hi)
  in
  go t.root

let leaves t =
  let rec go = function Leaf _ -> 1 | Split { lo; hi; _ } -> go lo + go hi in
  go t.root

let mape_on t samples =
  Stats.mape (List.map (fun (f, y) -> (y, predict t f)) samples)
