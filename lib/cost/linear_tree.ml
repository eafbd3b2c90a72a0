open Elk_util

type node = Leaf of float array | Split of { feat : int; thresh : float; lo : node; hi : node }
type t = { dim : int; root : node }

(* Minimum samples per leaf. *)
let min_leaf = 16

(* The training set by column: [cols.(f).(i)] is feature [f] of sample
   [i], whose row is [rows.(i)] and target [ys.(i)].  A node's samples are
   index arrays: [idx] in sample order, [by_feat.(f)] in ascending order
   of feature [f].  Every sum runs over [idx], so it adds the node's
   targets in the order a fold over its samples would. *)
type data = { rows : float array array; cols : float array array; ys : float array }

let sum_ys ys idx =
  let s = ref 0. in
  for k = 0 to Array.length idx - 1 do
    s := !s +. ys.(idx.(k))
  done;
  !s

let leaf_model d idx =
  (* OLS needs enough rows to be meaningful; small leaves use the mean,
     encoded as a zero-coefficient model with only an intercept. *)
  let n = Array.length idx and dim = Array.length d.cols in
  if n <= dim + 2 then begin
    let coeffs = Array.make (dim + 1) 0. in
    coeffs.(dim) <- sum_ys d.ys idx /. float_of_int n;
    coeffs
  end
  else Stats.ols (Array.fold_right (fun i acc -> (d.rows.(i), d.ys.(i)) :: acc) idx [])

let sse_of_mean ys idx =
  let m = sum_ys ys idx /. float_of_int (Array.length idx) in
  let s = ref 0. in
  for k = 0 to Array.length idx - 1 do
    s := !s +. ((ys.(idx.(k)) -. m) ** 2.)
  done;
  !s

(* The squared errors of the two sides of [col.(i) < thresh] about their
   own means, summed, or [None] when a side would hold fewer than
   [min_leaf] samples.  One pass sums each side's targets, a second its
   squared deviations; neither allocates. *)
let split_sse ys (col : float array) idx thresh =
  let n = Array.length idx in
  let nlo = ref 0 and slo = ref 0. and shi = ref 0. in
  for k = 0 to n - 1 do
    let i = idx.(k) in
    if col.(i) < thresh then begin
      incr nlo;
      slo := !slo +. ys.(i)
    end
    else shi := !shi +. ys.(i)
  done;
  let nlo = !nlo in
  if nlo < min_leaf || n - nlo < min_leaf then None
  else begin
    let mlo = !slo /. float_of_int nlo and mhi = !shi /. float_of_int (n - nlo) in
    let elo = ref 0. and ehi = ref 0. in
    for k = 0 to n - 1 do
      let i = idx.(k) in
      if col.(i) < thresh then elo := !elo +. ((ys.(i) -. mlo) ** 2.)
      else ehi := !ehi +. ((ys.(i) -. mhi) ** 2.)
    done;
    Some (!elo +. !ehi)
  end

(* Calls [f] on every [max 1 (nd / 8)]-th of the [nd] distinct values of
   [col] over [sorted] (a node's samples in ascending order of [col]),
   in ascending order, past the smallest. *)
let iter_thresholds col sorted f =
  let distinct = Array.make (Array.length sorted) 0. and nd = ref 0 in
  Array.iter
    (fun i ->
      let v = col.(i) in
      if !nd = 0 || not (Float.equal v distinct.(!nd - 1)) then begin
        distinct.(!nd) <- v;
        incr nd
      end)
    sorted;
  let step = max 1 (!nd / 8) in
  let rec go i = if i < !nd then (f distinct.(i); go (i + step)) in
  if !nd >= 2 then go step

(* Whether features [f] and [g] sort the node's samples alike, ties
   included, with no NaN (which sorts first but falls on the high side of
   every threshold).  Then every threshold of [g] cuts the node as the
   threshold of [f] at the same distinct-value index does. *)
let same_order d by_feat f g =
  let cf = d.cols.(f) and cg = d.cols.(g) and sf = by_feat.(f) and sg = by_feat.(g) in
  let tie c s k = Float.equal c.(s.(k)) c.(s.(k - 1)) in
  let rec go k =
    k >= Array.length sf || (sf.(k) = sg.(k) && tie cf sf k = tie cg sg k && go (k + 1))
  in
  (not (Float.is_nan cf.(sf.(0)) || Float.is_nan cg.(sg.(0)))) && sf.(0) = sg.(0) && go 1

let best_split d idx by_feat =
  let base = sse_of_mean d.ys idx in
  let best = ref None in
  for feat = 0 to Array.length d.cols - 1 do
    let col = d.cols.(feat) in
    (* A feature that sorts the node like an earlier one (tile points,
       FLOPs and bytes do on the pointwise kinds) scores exactly that
       one's cuts again, and a tie never displaces the first best.  (A
       NaN score would, but scores are NaN only when [base] is not
       finite, and then no split passes the test below.) *)
    let rec repeats f = f < feat && (same_order d by_feat f feat || repeats (f + 1)) in
    if not (repeats 0) then
      iter_thresholds col by_feat.(feat) (fun thresh ->
          match split_sse d.ys col idx thresh with
          | None -> ()
          | Some sse -> (
              let score = base -. sse in
              match !best with
              | Some (s, _, _) when s >= score -> ()
              | _ -> best := Some (score, feat, thresh)))
  done;
  match !best with
  | Some (score, feat, thresh) when score > base *. 1e-4 -> Some (feat, thresh)
  | _ -> None

(* The members of [a] below [thresh] on [col], then the rest, each in
   [a]'s order. *)
let partition (col : float array) thresh a =
  let n = Array.length a in
  let nlo = ref 0 in
  for k = 0 to n - 1 do
    if col.(a.(k)) < thresh then incr nlo
  done;
  let lo = Array.make !nlo 0 and hi = Array.make (n - !nlo) 0 in
  let l = ref 0 in
  for k = 0 to n - 1 do
    let i = a.(k) in
    if col.(i) < thresh then begin
      lo.(!l) <- i;
      incr l
    end
    else hi.(k - !l) <- i
  done;
  (lo, hi)

let rec grow d idx by_feat ~depth ~max_depth =
  if depth >= max_depth || Array.length idx < 2 * min_leaf then Leaf (leaf_model d idx)
  else
    match best_split d idx by_feat with
    | None -> Leaf (leaf_model d idx)
    | Some (feat, thresh) ->
        let col = d.cols.(feat) in
        let lo, hi = partition col thresh idx in
        let sides = Array.map (partition col thresh) by_feat in
        Split
          {
            feat;
            thresh;
            lo = grow d lo (Array.map fst sides) ~depth:(depth + 1) ~max_depth;
            hi = grow d hi (Array.map snd sides) ~depth:(depth + 1) ~max_depth;
          }

let fit ?(max_depth = 7) samples =
  (match samples with [] -> invalid_arg "Linear_tree.fit: no samples" | _ -> ());
  let rows = Array.of_list (List.map fst samples) in
  let dim = Array.length rows.(0) in
  Array.iter
    (fun f ->
      if Array.length f <> dim then
        invalid_arg "Linear_tree.fit: inconsistent feature dimensions")
    rows;
  let n = Array.length rows in
  let cols = Array.init dim (fun f -> Array.map (fun r -> r.(f)) rows) in
  let d = { rows; cols; ys = Array.of_list (List.map snd samples) } in
  let by_feat =
    Array.map
      (fun col ->
        let order = Array.init n Fun.id in
        Array.stable_sort (fun a b -> Float.compare col.(a) col.(b)) order;
        order)
      cols
  in
  { dim; root = grow d (Array.init n Fun.id) by_feat ~depth:0 ~max_depth }

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
