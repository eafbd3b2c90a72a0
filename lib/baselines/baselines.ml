open Elk_model
module P = Elk_partition.Partition

type design = Basic | Static | Elk_dyn | Elk_full | Ideal

let name = function
  | Basic -> "Basic"
  | Static -> "Static"
  | Elk_dyn -> "Elk-Dyn"
  | Elk_full -> "Elk-Full"
  | Ideal -> "Ideal"

let all = [ Basic; Static; Elk_dyn; Elk_full; Ideal ]

type outcome = {
  design : design;
  latency : float;
  timeline : Elk.Timeline.result option;
  hbm_util : float;
  noc_util : float;
  achieved_flops : float;
}

let popt_within ctx op plan ~space =
  let opts = P.preload_options ctx op plan in
  let fitting = List.filter (fun o -> o.P.preload_space <= space) opts in
  match (fitting, opts) with
  | _ :: _, _ ->
      (* Largest fitting option: most broadcast, least distribution. *)
      List.fold_left
        (fun acc o -> if o.P.preload_space >= acc.P.preload_space then o else acc)
        (List.hd fitting) fitting
  | [], first :: _ -> first
  | [], [] -> assert false

let entry_of id plan popt =
  {
    Elk.Schedule.node_id = id;
    plan;
    popt;
    preload_len = popt.P.preload_len;
    dist_time = popt.P.dist_time;
  }

let basic_schedule ctx graph =
  let n = Graph.length graph in
  let chip = P.ctx_chip ctx in
  let capacity = Elk_arch.Arch.usable_sram_per_core chip in
  let plans = Array.init n (fun i -> P.fastest_plan ctx (Graph.get graph i).Graph.op) in
  let popts =
    Array.init n (fun i ->
        (* Op i is preloaded into the space left over by the operator
           executing while it loads (op i-1); the first op has the whole
           memory to itself. *)
        let left =
          if i = 0 then capacity
          else Float.max 0. (capacity -. plans.(i - 1).P.exec_space)
        in
        popt_within ctx (Graph.get graph i).Graph.op plans.(i) ~space:left)
  in
  let windows = Array.make (n + 1) 0 in
  windows.(0) <- 1;
  for i = 1 to n - 1 do
    windows.(i) <- 1
  done;
  {
    Elk.Schedule.graph;
    order = Array.init n (fun i -> i);
    windows;
    entries = Array.init n (fun i -> entry_of i plans.(i) popts.(i));
    est_total = 0.;
  }

let static_schedule ctx graph ~preload_budget ~use_max_popt =
  let n = Graph.length graph in
  let chip = P.ctx_chip ctx in
  let capacity = Elk_arch.Arch.usable_sram_per_core chip in
  let exec_space = capacity -. preload_budget in
  let plans =
    Array.init n (fun i ->
        P.fastest_plan_within ctx (Graph.get graph i).Graph.op ~space:exec_space)
  in
  if Array.exists (fun p -> p = None) plans then None
  else begin
    let plans = Array.map Option.get plans in
    let popts =
      Array.init n (fun i ->
          let opts = P.preload_options ctx (Graph.get graph i).Graph.op plans.(i) in
          if use_max_popt then List.nth opts (List.length opts - 1) else List.hd opts)
    in
    let windows = Array.make (n + 1) 0 in
    let resident = ref 0. and cursor = ref 0 in
    for i = 0 to n - 1 do
      (* Window [i] is issued while op [i-1] executes, so ops [0..i-2]
         have freed their preload space; fill the static budget as far as
         possible, but always force the operator about to execute to be
         preloaded. *)
      if i > 1 then resident := Float.max 0. (!resident -. popts.(i - 2).P.preload_space);
      let count = ref 0 in
      let continue = ref true in
      while !continue && !cursor < n do
        let space = popts.(!cursor).P.preload_space in
        if !resident +. space <= preload_budget || !cursor <= i then begin
          resident := !resident +. space;
          incr cursor;
          incr count
        end
        else continue := false
      done;
      windows.(i) <- !count
    done;
    (* Any leftovers trail in the last window. *)
    windows.(n) <- n - Array.fold_left ( + ) 0 windows;
    if windows.(n) < 0 then None
    else
      Some
        {
          Elk.Schedule.graph;
          order = Array.init n (fun i -> i);
          windows;
          entries = Array.init n (fun i -> entry_of i plans.(i) popts.(i));
          est_total = 0.;
        }
  end

let outcome_of_timeline design pod tl allreduce =
  {
    design;
    latency = tl.Elk.Timeline.total +. allreduce;
    timeline = Some tl;
    hbm_util = tl.Elk.Timeline.hbm_util;
    noc_util = tl.Elk.Timeline.noc_util;
    achieved_flops =
      tl.Elk.Timeline.achieved_flops *. float_of_int pod.Elk_arch.Arch.chips;
  }

let run_ideal ctx ~pod chip_graph =
  let chip = P.ctx_chip ctx in
  let cost = P.ctx_cost ctx in
  let exec_total =
    Array.fold_left
      (fun acc (node : Graph.node) ->
        acc +. (P.fastest_plan ctx node.Graph.op).P.exec_time)
      0. (Graph.nodes chip_graph)
  in
  let hbm_bytes = Graph.total_hbm_bytes chip_graph in
  let hbm_total = Elk_cost.Costmodel.hbm_time cost ~bytes:hbm_bytes in
  let allreduce = Elk.Sharding.allreduce_time pod chip_graph in
  let total = Float.max exec_total hbm_total in
  let exchange =
    Array.fold_left
      (fun acc (node : Graph.node) ->
        let pl = P.fastest_plan ctx node.Graph.op in
        acc +. (pl.P.exchange_bytes_per_core *. float_of_int pl.P.cores_used))
      0. (Graph.nodes chip_graph)
  in
  {
    design = Ideal;
    latency = total +. allreduce;
    timeline = None;
    hbm_util = (if total > 0. then hbm_bytes /. (chip.Elk_arch.Arch.hbm_bandwidth *. total) else 0.);
    noc_util =
      (if total > 0. then
         exchange /. (Elk_arch.Arch.aggregate_intercore_bw chip *. total)
       else 0.);
    achieved_flops =
      (if total > 0. then
         Graph.total_flops chip_graph /. total *. float_of_int pod.Elk_arch.Arch.chips
       else 0.);
  }

let plan ?elk_options ctx ~pod graph design =
  match design with
  | Basic -> Some (basic_schedule ctx (Elk.Compile.chip_graph ctx ~pod graph))
  | Static ->
      let chip_graph = Elk.Compile.chip_graph ctx ~pod graph in
      let chip = P.ctx_chip ctx in
      let capacity = Elk_arch.Arch.usable_sram_per_core chip in
      let grid = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8 ] in
      let best = ref None in
      List.iter
        (fun frac ->
          List.iter
            (fun use_max_popt ->
              match
                static_schedule ctx chip_graph ~preload_budget:(frac *. capacity)
                  ~use_max_popt
              with
              | None -> ()
              | Some s -> (
                  match Elk.Schedule.validate s with
                  | Error _ -> ()
                  | Ok () ->
                      let tl = Elk.Timeline.evaluate ctx s in
                      (match !best with
                      | Some (bt, _) when bt <= tl.Elk.Timeline.total -> ()
                      | _ -> best := Some (tl.Elk.Timeline.total, s))))
            [ false; true ])
        grid;
      (match !best with
      | Some (_, s) -> Some s
      | None -> Some (basic_schedule ctx chip_graph))
  | Elk_dyn ->
      let options =
        match elk_options with
        | Some o -> { o with Elk.Compile.max_orders = 1 }
        | None -> Elk.Compile.dyn_options
      in
      let c = Elk.Compile.compile ~options ctx ~pod graph in
      Some c.Elk.Compile.schedule
  | Elk_full ->
      let options = Option.value elk_options ~default:Elk.Compile.default_options in
      let c = Elk.Compile.compile ~options ctx ~pod graph in
      Some c.Elk.Compile.schedule
  | Ideal -> None

let run ?elk_options ctx ~pod graph design =
  let chip_graph = Elk.Compile.chip_graph ctx ~pod graph in
  let allreduce = Elk.Sharding.allreduce_time pod chip_graph in
  match plan ?elk_options ctx ~pod graph design with
  | Some s -> outcome_of_timeline design pod (Elk.Timeline.evaluate ctx s) allreduce
  | None -> run_ideal ctx ~pod chip_graph
