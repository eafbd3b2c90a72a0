open Elk_model
module P = Elk_partition.Partition

type stage = {
  ops : int list;
  cores : int;
  compute_time : float;
  weight_bytes : float;
  resident : bool;
  swap_time : float;
}

type plan = {
  stages : stage list;
  bottleneck : float;
  latency : float;
  throughput : float;
}

(* Whole-chip execution time of one operator (its fastest plan), used as
   the per-op weight for stage balancing; a stage running on a fraction of
   the cores scales inversely. *)
let op_time ctx (node : Graph.node) = (P.fastest_plan ctx node.Graph.op).P.exec_time

(* Per-operator launch/synchronization overhead (BSP supersteps), which
   does NOT scale with the stage's core share — amortizing it over fewer
   operators per stage is one of the genuine wins of deep pipelines.
   Matches [Elk_cost.Device]'s kernel launch overhead. *)
let op_overhead = 6e-7

(* Exact linear-partition DP: split weights w.(0..n-1) into [k] contiguous
   groups minimizing the maximum group sum.  O(k n^2), fine at our op
   counts.  Returns the group boundaries (end-exclusive indices). *)
let linear_partition weights k =
  let n = Array.length weights in
  let prefix = Array.make (n + 1) 0. in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- prefix.(i) +. weights.(i)
  done;
  let seg i j = prefix.(j) -. prefix.(i) in
  (* best.(i).(g) = minimal bottleneck splitting the first i items into g
     groups; cut.(i).(g) = position of the last cut. *)
  let best = Array.make_matrix (n + 1) (k + 1) infinity in
  let cut = Array.make_matrix (n + 1) (k + 1) 0 in
  best.(0).(0) <- 0.;
  for g = 1 to k do
    for i = g to n do
      for j = g - 1 to i - 1 do
        let candidate = Float.max best.(j).(g - 1) (seg j i) in
        if candidate < best.(i).(g) then begin
          best.(i).(g) <- candidate;
          cut.(i).(g) <- j
        end
      done
    done
  done;
  let rec walk i g acc =
    if g = 0 then acc else walk cut.(i).(g) (g - 1) (i :: acc)
  in
  walk n k []

let plan ctx graph ~stages =
  let n = Graph.length graph in
  let chip = P.ctx_chip ctx in
  let total_cores = chip.Elk_arch.Arch.cores in
  if stages < 1 || stages > min n total_cores then
    invalid_arg "Pipeline.plan: stage count out of range";
  let nodes = Graph.nodes graph in
  let weights = Array.map (op_time ctx) nodes in
  let bounds = linear_partition weights stages in
  let groups =
    let rec go start = function
      | [] -> []
      | e :: rest -> (start, e) :: go e rest
    in
    go 0 bounds
  in
  let group_time (s, e) =
    let acc = ref 0. in
    for i = s to e - 1 do
      acc := !acc +. weights.(i)
    done;
    !acc
  in
  let total_time = Array.fold_left ( +. ) 0. weights in
  (* Cores proportional to stage work (at least 1). *)
  let cores_of t =
    max 1 (int_of_float (Float.round (float_of_int total_cores *. t /. Float.max 1e-12 total_time)))
  in
  let sram = Elk_arch.Arch.usable_sram_per_core chip in
  let mk (s, e) =
    let t_chipwide = group_time (s, e) in
    let cores = min total_cores (cores_of t_chipwide) in
    let n_ops = e - s in
    (* The scalable part of the work runs inversely in the stage's core
       share; per-op launch/sync overhead stays fixed. *)
    let work = Float.max 0. (t_chipwide -. (float_of_int n_ops *. op_overhead)) in
    let compute_time =
      (work *. float_of_int total_cores /. float_of_int cores)
      +. (float_of_int n_ops *. op_overhead)
    in
    let weight_bytes = ref 0. in
    let ops = ref [] in
    for i = e - 1 downto s do
      ops := i :: !ops;
      weight_bytes :=
        !weight_bytes +. Elk_tensor.Opspec.hbm_bytes nodes.(i).Graph.op
    done;
    let capacity = sram *. float_of_int cores in
    let resident = !weight_bytes <= capacity in
    let swap_time =
      if resident then 0.
      else
        (* Non-resident weights stream from HBM once per request wave,
           sharing the chip's HBM bandwidth proportionally to cores. *)
        (!weight_bytes -. capacity)
        /. (chip.Elk_arch.Arch.hbm_bandwidth *. float_of_int cores
           /. float_of_int total_cores)
    in
    {
      ops = !ops;
      cores;
      compute_time;
      weight_bytes = !weight_bytes;
      resident;
      swap_time;
    }
  in
  let stage_list = List.map mk groups in
  let cycle =
    List.fold_left (fun a st -> Float.max a (st.compute_time +. st.swap_time)) 0. stage_list
  in
  let latency =
    List.fold_left (fun a st -> a +. st.compute_time +. st.swap_time) 0. stage_list
  in
  {
    stages = stage_list;
    bottleneck = cycle;
    latency;
    throughput = (if cycle > 0. then 1. /. cycle else 0.);
  }

let best_stage_count ctx graph =
  let n = Graph.length graph in
  let chip_cores = (P.ctx_chip ctx).Elk_arch.Arch.cores in
  let hi = min 8 (min n chip_cores) in
  let rec go best k =
    if k > hi then best
    else
      let p = plan ctx graph ~stages:k in
      let best =
        match best with
        | Some (_, bp)
          when bp.throughput > p.throughput
               || (bp.throughput = p.throughput && bp.latency <= p.latency) ->
            best
        | _ -> Some (k, p)
      in
      go best (k + 1)
  in
  match go None 1 with Some r -> r | None -> assert false

let pp_plan fmt p =
  Format.fprintf fmt "@[<v>%d stages, cycle %a, latency %a, throughput %.1f req/s@,"
    (List.length p.stages) Elk_util.Units.pp_time p.bottleneck Elk_util.Units.pp_time
    p.latency p.throughput;
  List.iteri
    (fun i st ->
      Format.fprintf fmt "  stage %d: %d ops on %d cores, %a compute, %a weights%s@," i
        (List.length st.ops) st.cores Elk_util.Units.pp_time st.compute_time
        Elk_util.Units.pp_bytes st.weight_bytes
        (if st.resident then "" else Format.asprintf " (+%a swap)" Elk_util.Units.pp_time st.swap_time))
    p.stages;
  Format.fprintf fmt "@]"
