let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stdev xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
      let m = mean xs in
      let var = mean (List.map (fun x -> (x -. m) ** 2.) xs) in
      sqrt var

let percentile p xs =
  if xs = [] then invalid_arg "Stats.percentile: empty list";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let arr = Array.of_list xs in
  Array.sort compare arr;
  let n = Array.length arr in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  let frac = rank -. floor rank in
  (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)

let geomean = function
  | [] -> 0.
  | xs -> exp (mean (List.map log xs))

let mape pairs =
  let errs =
    List.filter_map
      (fun (m, p) -> if m = 0. then None else Some (Float.abs ((m -. p) /. m)))
      pairs
  in
  mean errs

let r2 pairs =
  let ys = List.map fst pairs in
  let ybar = mean ys in
  let ss_res = List.fold_left (fun a (m, p) -> a +. ((m -. p) ** 2.)) 0. pairs in
  let ss_tot = List.fold_left (fun a y -> a +. ((y -. ybar) ** 2.)) 0. ys in
  if ss_tot = 0. then if ss_res = 0. then 1. else 0. else 1. -. (ss_res /. ss_tot)

(* Solve the [n x n] system [a x = b] in place by Gaussian elimination with
   partial pivoting.  Near-zero pivots are damped rather than failed on,
   because cost-model features can be collinear for degenerate tile shapes. *)
let solve a b =
  let n = Array.length b in
  for col = 0 to n - 1 do
    let pivot = ref col in
    for row = col + 1 to n - 1 do
      if Float.abs a.(row).(col) > Float.abs a.(!pivot).(col) then pivot := row
    done;
    let tmp = a.(col) in
    a.(col) <- a.(!pivot);
    a.(!pivot) <- tmp;
    let tb = b.(col) in
    b.(col) <- b.(!pivot);
    b.(!pivot) <- tb;
    if Float.abs a.(col).(col) < 1e-12 then a.(col).(col) <- a.(col).(col) +. 1e-9;
    for row = col + 1 to n - 1 do
      let f = a.(row).(col) /. a.(col).(col) in
      for k = col to n - 1 do
        a.(row).(k) <- a.(row).(k) -. (f *. a.(col).(k))
      done;
      b.(row) <- b.(row) -. (f *. b.(col))
    done
  done;
  let x = Array.make n 0. in
  for row = n - 1 downto 0 do
    let s = ref b.(row) in
    for k = row + 1 to n - 1 do
      s := !s -. (a.(row).(k) *. x.(k))
    done;
    x.(row) <- !s /. a.(row).(row)
  done;
  x

let ols samples =
  (match samples with [] -> invalid_arg "Stats.ols: no samples" | _ -> ());
  let dim = Array.length (fst (List.hd samples)) in
  List.iter
    (fun (f, _) ->
      if Array.length f <> dim then invalid_arg "Stats.ols: inconsistent feature dims")
    samples;
  let n = dim + 1 in
  (* Normal equations: (X^T X) w = X^T y, with the intercept as an implicit
     all-ones feature column. *)
  let xtx = Array.make_matrix n n 0. in
  let xty = Array.make n 0. in
  let feat f i = if i = dim then 1. else f.(i) in
  List.iter
    (fun (f, y) ->
      for i = 0 to n - 1 do
        xty.(i) <- xty.(i) +. (feat f i *. y);
        for j = 0 to n - 1 do
          xtx.(i).(j) <- xtx.(i).(j) +. (feat f i *. feat f j)
        done
      done)
    samples;
  (* Tikhonov damping keeps the system well-posed under collinear or
     wildly scaled features; the term is relative to each diagonal entry
     so it works across magnitudes. *)
  for i = 0 to n - 1 do
    xtx.(i).(i) <- (xtx.(i).(i) *. (1. +. 1e-8)) +. 1e-9
  done;
  solve xtx xty

let predict coeffs features =
  let dim = Array.length features in
  let acc = ref coeffs.(dim) in
  for i = 0 to dim - 1 do
    acc := !acc +. (coeffs.(i) *. features.(i))
  done;
  !acc

let rel_err a b =
  let scale = Float.max (Float.abs a) (Float.abs b) in
  if scale <= 0. then 0. else Float.abs (a -. b) /. scale
