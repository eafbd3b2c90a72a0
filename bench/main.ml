(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §4 for the experiment index).

   Usage:
     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe -- fig17 table2  # a subset

   A failed check exits 1, an unknown experiment name exits 2.  The
   simulator snapshots are byte-deterministic, gated by
   test/cram/snapshots.t; per-layer wall-clock cost is perfbench/'s.

   All experiments run at the scaled default configuration (DESIGN.md §5):
   4 chips x 64 cores, per-core rates identical to IPU MK2, models scaled
   by 8 in width and ~10x in depth, context 2048/8 = 256, so that every
   operator-size : SRAM ratio matches the paper's full-scale setup. *)

open Elk_model
open Elk_util
module B = Elk_baselines.Baselines
module D = Elk_dse.Dse
module P = Elk_partition.Partition

let bench_elk_options =
  { Elk.Compile.reorder = true; max_orders = 8; max_edit_distance = 4; max_preload = 32;
    prune_margin = 0.25 }

let width_factor = 8
let ctx_len = 2048 / width_factor

(* The five evaluation models (Table 2), scaled. *)
let llama13b = Zoo.scale Zoo.llama2_13b ~factor:width_factor ~layer_factor:10
let gemma27b = Zoo.scale Zoo.gemma2_27b ~factor:width_factor ~layer_factor:11
let opt30b = Zoo.scale Zoo.opt_30b ~factor:width_factor ~layer_factor:12
let llama70b = Zoo.scale Zoo.llama2_70b ~factor:width_factor ~layer_factor:20
let ditxl = Zoo.scale Zoo.dit_xl ~factor:width_factor ~layer_factor:7

let llm_cfgs = [ llama13b; gemma27b; opt30b; llama70b ]

let decode cfg ~batch = Zoo.build cfg (Zoo.Decode { batch; ctx = ctx_len })

let default_env = lazy (D.env ())

let pct x = Printf.sprintf "%.1f%%" (100. *. x)
let us x = Printf.sprintf "%.1f" (x *. 1e6)

(* Design evaluations are reused across figures (17/18 share, 19/20/21
   share); memoize on a caller-provided key. *)
let eval_memo : (string, D.eval list) Hashtbl.t = Hashtbl.create 32

let evaluate_all ~key env graph =
  match Hashtbl.find_opt eval_memo key with
  | Some e -> e
  | None ->
      let e = D.evaluate_all ~elk_options:bench_elk_options env graph in
      Hashtbl.add eval_memo key e;
      e

(* A failed check ends the run with exit 1, before the failing
   experiment writes its snapshot. *)
let fail label msg =
  Printf.eprintf "%s: %s\n%!" label msg;
  exit 1

let check label = function Ok () -> () | Error m -> fail label m

(* The headline run the snapshot experiments plan: Elk-Full on the
   scaled Llama2-13B decode at batch 32. *)
let with_headline f =
  let env = Lazy.force default_env in
  let g = decode llama13b ~batch:32 in
  match B.plan ~elk_options:bench_elk_options env.D.ctx ~pod:env.D.pod g B.Elk_full with
  | None -> fail "NO HEADLINE PLAN" "Elk-Full found no schedule"
  | Some s -> f env g s

(* Every committed snapshot goes through here: BENCH_<name>.json in the
   working directory, announced on stdout. *)
let write_snapshot name json =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out file in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n\n" file

(* ------------------------------------------------------------------ *)
(* Table 2: model complexity factors                                  *)
(* ------------------------------------------------------------------ *)

let table2 () =
  let env = Lazy.force default_env in
  let capacity = Elk_arch.Arch.usable_sram_per_core env.D.pod.Elk_arch.Arch.chip in
  let t =
    Table.create ~title:"Table 2: model complexity factors (scaled models)"
      ~columns:[ "Model"; "C"; "H"; "P"; "K"; "N" ]
  in
  List.iter
    (fun cfg ->
      let g =
        if cfg.Zoo.family = Zoo.Dit then Zoo.build cfg (Zoo.Decode { batch = 2; ctx = 1 })
        else decode cfg ~batch:32
      in
      let cg = Elk.Sharding.shard_graph ~chips:env.D.pod.Elk_arch.Arch.chips g in
      let n = Graph.length cg in
      let template = Elk.Reorder.template_layer_heavy cg in
      let h = List.length template in
      (* C: how many of the layer's heavy operators co-reside on chip. *)
      let heavy_spaces =
        List.map (fun id -> Elk.Alloc.min_preload_space env.D.ctx (Graph.get cg id)) template
        |> List.sort compare
      in
      let c =
        let rec count acc = function
          | s :: rest when acc +. s <= capacity -> 1 + count (acc +. s) rest
          | _ -> 0
        in
        count 0. heavy_spaces
      in
      (* P: max partition plans per operator; K: ops fitting on chip at
         minimal preload footprint. *)
      let p =
        Array.fold_left
          (fun a (node : Graph.node) ->
            max a (List.length (P.enumerate env.D.ctx node.Graph.op)))
          0 (Graph.nodes cg)
      in
      (* K: how many operators (greedily, smallest first) co-reside at
         minimal preload footprint. *)
      let all_spaces =
        Array.to_list (Graph.nodes cg)
        |> List.map (fun node -> Elk.Alloc.min_preload_space env.D.ctx node)
        |> List.sort compare
      in
      let k =
        let rec count acc = function
          | s :: rest when acc +. s <= capacity -> 1 + count (acc +. s) rest
          | _ -> 0
        in
        min n (count 0. all_spaces)
      in
      Table.add_row t
        [ cfg.Zoo.cfg_name; string_of_int c; string_of_int h; string_of_int p;
          string_of_int k; string_of_int n ])
    (llm_cfgs @ [ ditxl ]);
  Table.print t

(* ------------------------------------------------------------------ *)
(* Fig 5: execution time vs execution space (Pareto plans)            *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  let env = Lazy.force default_env in
  let t =
    Table.create
      ~title:"Fig 5: per-op execution time vs per-core execution space (frontier points)"
      ~columns:[ "Model"; "Operator"; "space KB -> time us (frontier)" ]
  in
  List.iter
    (fun (cfg, roles) ->
      let g = Elk.Sharding.shard_graph ~chips:4 (decode cfg ~batch:32) in
      List.iter
        (fun role ->
          match
            Array.find_opt (fun (n : Graph.node) -> n.Graph.role = role) (Graph.nodes g)
          with
          | None -> ()
          | Some node ->
              let f = P.exec_frontier env.D.ctx node.Graph.op in
              let cells =
                List.map
                  (fun pt ->
                    Printf.sprintf "%.0f->%.1f" (pt.Pareto.x /. 1e3)
                      (pt.Pareto.payload.P.exec_time *. 1e6))
                  f
              in
              let cells = List.filteri (fun i _ -> i < 8) cells in
              Table.add_row t [ cfg.Zoo.cfg_name; role; String.concat " " cells ])
        roles)
    [
      (llama13b, [ "q_proj"; "ffn_gate"; "attn_score" ]);
      (gemma27b, [ "q_proj"; "ffn_up" ]);
      (opt30b, [ "q_proj"; "ffn_up" ]);
    ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Figs 6-8: traffic demand over time                                 *)
(* ------------------------------------------------------------------ *)

let static_sim ~budget_frac ~use_max_popt =
  let env = Lazy.force default_env in
  let g = Elk.Sharding.shard_graph ~chips:4 (decode llama13b ~batch:32) in
  let capacity = Elk_arch.Arch.usable_sram_per_core env.D.pod.Elk_arch.Arch.chip in
  match
    B.static_schedule env.D.ctx g ~preload_budget:(budget_frac *. capacity) ~use_max_popt
  with
  | Some s -> Some (s, Elk_sim.Sim.run env.D.ctx s)
  | None -> None

let sparkline values =
  let glyphs = [| " "; "_"; "."; "-"; "="; "*"; "#"; "@" |] in
  let hi = Array.fold_left Float.max 1e-12 values in
  String.concat ""
    (Array.to_list values
    |> List.map (fun v ->
           glyphs.(min 7 (int_of_float (Float.round (v /. hi *. 7.))))))

let series_row label (series : Series.t) ~scale =
  let bins = Series.bins series ~n:12 in
  (label
  :: (Array.to_list bins |> List.map (fun (_, r) -> Printf.sprintf "%.1f" (r /. scale))))
  @ [ sparkline (Array.map snd bins) ]

let bin_headers () = ("setting" :: List.init 12 (fun i -> Printf.sprintf "t%d" i)) @ [ "shape" ]

let fig6 () =
  let t =
    Table.create
      ~title:
        "Fig 6: HBM bandwidth demand over time (GB/s per chip), by per-core preload space"
      ~columns:(bin_headers ())
  in
  List.iter
    (fun frac ->
      match static_sim ~budget_frac:frac ~use_max_popt:true with
      | None -> ()
      | Some (_, r) ->
          (* The paper plots the minimum bandwidth needed to avoid stalls:
             each operator's HBM bytes must arrive inside the window its
             preload space allows, i.e. between when its preload could
             start and when its execution starts.  Small preload budgets
             narrow the windows and spike the demand. *)
          let s = Series.create () in
          Array.iter
            (fun (o : Elk_sim.Sim.op_trace) ->
              if o.Elk_sim.Sim.device_bytes > 0. then
                Series.add s ~t_start:o.Elk_sim.Sim.pre_start
                  ~t_end:(Float.max o.Elk_sim.Sim.exe_start (o.Elk_sim.Sim.pre_start +. 1e-9))
                  ~volume:o.Elk_sim.Sim.device_bytes)
            r.Elk_sim.Sim.per_op;
          let label =
            Printf.sprintf "%.0fKB/core"
              (frac
              *. Elk_arch.Arch.usable_sram_per_core
                   (Lazy.force default_env).D.pod.Elk_arch.Arch.chip
              /. 1e3)
          in
          Table.add_row t (series_row label s ~scale:1e9))
    [ 0.1; 0.25; 0.45 ];
  Table.print t

(* Figs 7-8 plot one of the simulator's derived series (Sim.series) per
   core: the inter-core phases alone, then with preload injection.  The
   two rows differ only where an operator's plan has more than one
   preload option, so the count of such operators is printed under the
   table. *)
let noc_fig ~title pick =
  let cores = float_of_int (Lazy.force default_env).D.pod.Elk_arch.Arch.chip.Elk_arch.Arch.cores in
  let t = Table.create ~title ~columns:(bin_headers ()) in
  let runs =
    List.filter_map
      (fun (label, use_max_popt) ->
        Option.map (fun run -> (label, run)) (static_sim ~budget_frac:0.4 ~use_max_popt))
      [ ("MinPreload", false); ("MaxPreload", true) ]
  in
  List.iter
    (fun (label, (s, r)) ->
      Table.add_row t (series_row label (pick (Elk_sim.Sim.series s r)) ~scale:(1e9 *. cores)))
    runs;
  Table.print t;
  match runs with
  | [ (_, (lo, _)); (_, (hi, _)) ] ->
      let differ = ref 0 in
      Array.iteri
        (fun i (e : Elk.Schedule.op_entry) ->
          if e.Elk.Schedule.popt <> hi.Elk.Schedule.entries.(i).Elk.Schedule.popt then incr differ)
        lo.Elk.Schedule.entries;
      Printf.printf "MinPreload and MaxPreload preload options differ on %d of %d ops\n" !differ
        (Array.length lo.Elk.Schedule.entries)
  | _ -> ()

let fig7 () =
  noc_fig ~title:"Fig 7: per-core inter-core bandwidth demand over time (GB/s)"
    (fun s -> s.Elk_sim.Sim.intercore)

let fig8 () =
  noc_fig ~title:"Fig 8: total per-core interconnect bandwidth demand over time (GB/s)"
    (fun s -> s.Elk_sim.Sim.noc)

(* ------------------------------------------------------------------ *)
(* Fig 12: cost-model accuracy                                        *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  let env = Lazy.force default_env in
  let cost = P.ctx_cost env.D.ctx in
  let t =
    Table.create ~title:"Fig 12: cost model accuracy (measured vs predicted)"
      ~columns:[ "Kind"; "samples"; "MAPE"; "r2" ]
  in
  List.iter
    (fun kind ->
      let pairs = Elk_cost.Costmodel.exec_accuracy cost ~kind ~n:200 in
      Table.add_row t
        [ kind; "200"; pct (Stats.mape pairs); Printf.sprintf "%.3f" (Stats.r2 pairs) ])
    [ "matmul"; "batch_matmul"; "softmax"; "rmsnorm"; "rope" ];
  let pairs = Elk_cost.Costmodel.transfer_accuracy cost ~n:200 in
  Table.add_row t
    [ "inter-core transfer"; "200"; pct (Stats.mape pairs);
      Printf.sprintf "%.3f" (Stats.r2 pairs) ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Fig 16: compile time                                               *)
(* ------------------------------------------------------------------ *)

let fig16 () =
  let env = Lazy.force default_env in
  let t =
    Table.create ~title:"Fig 16: Elk compile time (s) for varied model/batch sizes"
      ~columns:[ "Model"; "batch 8"; "batch 16"; "batch 32"; "batch 64" ]
  in
  List.iter
    (fun cfg ->
      let cells =
        List.map
          (fun batch ->
            let c =
              Elk.Compile.compile ~options:bench_elk_options env.D.ctx ~pod:env.D.pod
                (decode cfg ~batch)
            in
            Printf.sprintf "%.2f" c.Elk.Compile.compile_seconds)
          [ 8; 16; 32; 64 ]
      in
      Table.add_row t (cfg.Zoo.cfg_name :: cells))
    llm_cfgs;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Fig 17 + 18: end-to-end comparison on the default pod              *)
(* ------------------------------------------------------------------ *)

let fig17_evals cfg batch =
  let env = Lazy.force default_env in
  let key = Printf.sprintf "fig17/%s/%d" cfg.Zoo.cfg_name batch in
  evaluate_all ~key env (decode cfg ~batch)

let fig17 () =
  let t =
    Table.create ~title:"Fig 17: per-token serving latency (us), 4 chips"
      ~columns:("Model" :: "batch" :: List.map B.name B.all)
  in
  List.iter
    (fun cfg ->
      List.iter
        (fun batch ->
          let evals = fig17_evals cfg batch in
          Table.add_row t
            (cfg.Zoo.cfg_name :: string_of_int batch
            :: List.map (fun (e : D.eval) -> us e.D.latency) evals))
        [ 8; 32; 64 ])
    llm_cfgs;
  Table.print t

let fig18 () =
  let ta =
    Table.create ~title:"Fig 18a: execution time breakdown (batch 32), fraction of total"
      ~columns:[ "Model"; "Design"; "preload"; "execute"; "overlapped"; "interconnect" ]
  in
  let tb =
    Table.create ~title:"Fig 18b-d: resource utilization (batch 32)"
      ~columns:
        [ "Model"; "Design"; "HBM util"; "NoC util"; "(inter-core"; "+ preload)"; "TFLOPS" ]
  in
  List.iter
    (fun cfg ->
      List.iter
        (fun (e : D.eval) ->
          let total = Float.max 1e-12 e.D.latency in
          let b = e.D.bd in
          Table.add_row ta
            [ cfg.Zoo.cfg_name; B.name e.D.design;
              pct (b.Elk.Timeline.preload_only /. total);
              pct (b.Elk.Timeline.execute_only /. total);
              pct (b.Elk.Timeline.overlapped /. total);
              pct (b.Elk.Timeline.interconnect /. total) ];
          let ic, pre =
            match e.D.sim with
            | Some r -> r.Elk_sim.Sim.noc_util_split
            | None -> (e.D.noc_util, 0.)
          in
          Table.add_row tb
            [ cfg.Zoo.cfg_name; B.name e.D.design; pct e.D.hbm_util; pct e.D.noc_util;
              pct ic; pct pre; Printf.sprintf "%.2f" e.D.tflops ])
        (fig17_evals cfg 32))
    llm_cfgs;
  Table.print ta;
  Table.print tb

(* ------------------------------------------------------------------ *)
(* Figs 19-21: HBM bandwidth sweep on both topologies                 *)
(* ------------------------------------------------------------------ *)

let hbm_sweep_mults = [ 0.25; 0.5; 1.; 2. ]
let base_hbm_per_chip = (Lazy.force default_env).D.pod.Elk_arch.Arch.chip.Elk_arch.Arch.hbm_bandwidth

let fig19_evals topo mult cfg =
  let topology = match topo with `A2a -> `All_to_all | `Mesh -> `Mesh in
  let env = D.env ~topology ~hbm_bw_per_chip:(mult *. base_hbm_per_chip) () in
  let key =
    Printf.sprintf "fig19/%s/%.2f/%s"
      (match topo with `A2a -> "a2a" | `Mesh -> "mesh")
      mult cfg.Zoo.cfg_name
  in
  evaluate_all ~key env (decode cfg ~batch:32)

let fig19 () =
  let t =
    Table.create ~title:"Fig 19: per-token latency (us) at varied HBM bandwidths"
      ~columns:("Topology" :: "Model" :: "HBM x" :: List.map B.name B.all)
  in
  List.iter
    (fun topo ->
      List.iter
        (fun cfg ->
          List.iter
            (fun mult ->
              let evals = fig19_evals topo mult cfg in
              Table.add_row t
                ((match topo with `A2a -> "all-to-all" | `Mesh -> "mesh")
                :: cfg.Zoo.cfg_name
                :: Printf.sprintf "%.2fx" mult
                :: List.map (fun (e : D.eval) -> us e.D.latency) evals))
            hbm_sweep_mults)
        [ llama13b; llama70b; opt30b ])
    [ `A2a; `Mesh ];
  Table.print t

let fig20 () =
  let t =
    Table.create
      ~title:"Fig 20: Llama2-13B latency breakdown (us) vs HBM bandwidth, all-to-all"
      ~columns:[ "HBM x"; "Design"; "preload"; "execute"; "overlapped"; "interconnect" ]
  in
  List.iter
    (fun mult ->
      List.iter
        (fun (e : D.eval) ->
          let b = e.D.bd in
          Table.add_row t
            [ Printf.sprintf "%.2fx" mult; B.name e.D.design;
              us b.Elk.Timeline.preload_only; us b.Elk.Timeline.execute_only;
              us b.Elk.Timeline.overlapped; us b.Elk.Timeline.interconnect ])
        (fig19_evals `A2a mult llama13b))
    hbm_sweep_mults;
  Table.print t

let fig21 () =
  let t =
    Table.create ~title:"Fig 21: interconnect utilization at varied HBM bandwidths"
      ~columns:("Topology" :: "HBM x" :: List.map B.name B.all)
  in
  List.iter
    (fun topo ->
      List.iter
        (fun mult ->
          let evals = fig19_evals topo mult llama13b in
          Table.add_row t
            ((match topo with `A2a -> "all-to-all" | `Mesh -> "mesh")
            :: Printf.sprintf "%.2fx" mult
            :: List.map (fun (e : D.eval) -> pct e.D.noc_util) evals))
        hbm_sweep_mults)
    [ `A2a; `Mesh ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Fig 22: NoC bandwidth sweep                                        *)
(* ------------------------------------------------------------------ *)

let fig22 () =
  let base_link = 5.5e9 in
  let designs = [ B.Static; B.Elk_full; B.Ideal ] in
  let t =
    Table.create ~title:"Fig 22: Llama2-70B latency (us) at varied NoC bandwidths"
      ~columns:("Topology" :: "HBM x" :: "NoC x" :: List.map B.name designs)
  in
  List.iter
    (fun topo ->
      List.iter
        (fun hbm_mult ->
          List.iter
            (fun link_mult ->
              let topology = match topo with `A2a -> `All_to_all | `Mesh -> `Mesh in
              let env =
                D.env ~topology
                  ~hbm_bw_per_chip:(hbm_mult *. base_hbm_per_chip)
                  ~link_bw:(link_mult *. base_link) ()
              in
              let g = decode llama70b ~batch:32 in
              let cells =
                List.map
                  (fun d ->
                    us (D.evaluate ~elk_options:bench_elk_options env g d).D.latency)
                  designs
              in
              Table.add_row t
                ((match topo with `A2a -> "all-to-all" | `Mesh -> "mesh")
                :: Printf.sprintf "%.1fx" hbm_mult
                :: Printf.sprintf "%.1fx" link_mult
                :: cells))
            [ 0.5; 1.; 2.; 4. ])
        [ 0.5; 2. ])
    [ `A2a; `Mesh ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Fig 23: core-count sweep                                           *)
(* ------------------------------------------------------------------ *)

let fig23 () =
  let t =
    Table.create
      ~title:"Fig 23: per-token latency (us) at varied core counts (HBM 2.7 GB/s/core)"
      ~columns:("Model" :: "cores/chip" :: List.map B.name B.all)
  in
  List.iter
    (fun cores ->
      let env = D.env ~cores () in
      let evals =
        evaluate_all ~key:(Printf.sprintf "fig23/llama/%d" cores) env
          (decode llama13b ~batch:32)
      in
      Table.add_row t
        ("llama2-13b" :: string_of_int cores
        :: List.map (fun (e : D.eval) -> us e.D.latency) evals))
    [ 16; 32; 64; 128 ];
  (* DiT-XL on a single chip, as in the paper. *)
  List.iter
    (fun cores ->
      let env = D.env ~chips:1 ~cores () in
      let g = Zoo.build ditxl (Zoo.Decode { batch = 2; ctx = 1 }) in
      let evals = evaluate_all ~key:(Printf.sprintf "fig23/dit/%d" cores) env g in
      Table.add_row t
        ("dit-xl" :: string_of_int cores
        :: List.map (fun (e : D.eval) -> us e.D.latency) evals))
    [ 32; 64; 128 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Fig 24: training (forward pass) compute sweep                      *)
(* ------------------------------------------------------------------ *)

let fig24 () =
  let t =
    Table.create
      ~title:"Fig 24: Llama2-13B training forward pass, achieved TFLOPS (Elk-Full)"
      ~columns:[ "FLOPS x"; "bw 0.25x"; "bw 1x"; "bw 4x" ]
  in
  let g = Zoo.build llama13b (Zoo.Prefill { batch = 2; seq = 256 }) in
  List.iter
    (fun flops_scale ->
      let cells =
        List.map
          (fun bw_mult ->
            let env =
              D.env ~flops_scale
                ~hbm_bw_per_chip:(bw_mult *. base_hbm_per_chip)
                ~link_bw:(bw_mult *. 5.5e9) ()
            in
            let e = D.evaluate ~elk_options:bench_elk_options env g B.Elk_full in
            Printf.sprintf "%.2f" e.D.tflops)
          [ 0.25; 1.; 4. ]
      in
      Table.add_row t (Printf.sprintf "%.2fx" flops_scale :: cells))
    [ 0.5; 1.; 2.; 4. ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Ablations of Elk's design choices (DESIGN.md)                      *)
(* ------------------------------------------------------------------ *)

let ablation () =
  let g = decode llama13b ~batch:32 in
  (* (a) SRAM per core: where on-chip memory contention bites. *)
  let t =
    Table.create
      ~title:"Ablation A: per-core SRAM (us) - memory contention regime"
      ~columns:[ "SRAM/core"; "Basic"; "Elk-Full"; "Ideal"; "Elk vs Basic" ]
  in
  List.iter
    (fun kb ->
      let env = D.env ~sram_per_core:(kb *. 1024.) () in
      let l d = (D.evaluate ~elk_options:bench_elk_options env g d).D.latency in
      let basic = l B.Basic and full = l B.Elk_full and ideal = l B.Ideal in
      Table.add_row t
        [ Printf.sprintf "%.0fKB" kb; us basic; us full; us ideal;
          Printf.sprintf "%.2fx" (basic /. full) ])
    [ 64.; 96.; 160.; 320.; 624. ];
  Table.print t;
  (* (b) Preload-number cap: the value of deep lookahead (paper 4.2). *)
  let t =
    Table.create ~title:"Ablation B: preload-number cap (Elk-Dyn latency, us)"
      ~columns:[ "max preload"; "latency" ]
  in
  List.iter
    (fun cap ->
      let env = Lazy.force default_env in
      let e =
        D.evaluate
          ~elk_options:{ bench_elk_options with Elk.Compile.max_preload = cap }
          env g B.Elk_dyn
      in
      Table.add_row t [ string_of_int cap; us e.D.latency ])
    [ 1; 2; 4; 8; 32 ];
  Table.print t;
  (* (c) Reorder search width at 2x HBM, where reordering pays (Fig 20). *)
  let t =
    Table.create
      ~title:"Ablation C: reorder search width at 2x HBM (Elk-Full latency, us)"
      ~columns:[ "max orders"; "latency" ]
  in
  let env2 = D.env ~hbm_bw_per_chip:(2. *. base_hbm_per_chip) () in
  List.iter
    (fun orders ->
      let e =
        D.evaluate
          ~elk_options:
            { bench_elk_options with Elk.Compile.max_orders = orders;
              reorder = orders > 1 }
          env2 g B.Elk_full
      in
      Table.add_row t [ string_of_int orders; us e.D.latency ])
    [ 1; 4; 8; 24 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Extensions: spatial pipeline (paper 7) and energy objective        *)
(* ------------------------------------------------------------------ *)

let pipeline () =
  let env = Lazy.force default_env in
  let t =
    Table.create
      ~title:
        "Pipeline execution model (paper 7): throughput/latency vs stage count (Llama2-13B decode)"
      ~columns:[ "stages"; "cycle (us)"; "latency (us)"; "req/s"; "resident stages" ]
  in
  let cg =
    Elk.Opsplit.split_graph env.D.ctx
      (Elk.Sharding.shard_graph ~chips:4 (decode llama13b ~batch:32))
  in
  List.iter
    (fun stages ->
      let p = Elk_pipeline.Pipeline.plan env.D.ctx cg ~stages in
      let resident =
        List.length
          (List.filter (fun s -> s.Elk_pipeline.Pipeline.resident) p.Elk_pipeline.Pipeline.stages)
      in
      Table.add_row t
        [ string_of_int stages; us p.Elk_pipeline.Pipeline.bottleneck;
          us p.Elk_pipeline.Pipeline.latency;
          Printf.sprintf "%.0f" p.Elk_pipeline.Pipeline.throughput;
          Printf.sprintf "%d/%d" resident stages ])
    [ 1; 2; 4; 8 ];
  let k, best = Elk_pipeline.Pipeline.best_stage_count env.D.ctx cg in
  Table.add_row t
    [ Printf.sprintf "best=%d" k; us best.Elk_pipeline.Pipeline.bottleneck;
      us best.Elk_pipeline.Pipeline.latency;
      Printf.sprintf "%.0f" best.Elk_pipeline.Pipeline.throughput; "-" ];
  Table.print t;
  (* Reference: Elk time-multiplexed latency on the same graph. *)
  let e = D.evaluate ~elk_options:bench_elk_options env (decode llama13b ~batch:32) B.Elk_full in
  Printf.printf "Elk time-multiplexed reference: %.1f us/request (%.0f req/s)\n\n"
    (e.D.latency *. 1e6) (1. /. e.D.latency)

let energy () =
  let env = Lazy.force default_env in
  let g = decode llama13b ~batch:32 in
  let t =
    Table.create ~title:"Energy objective (paper 7): per-token energy by design"
      ~columns:[ "Design"; "total mJ"; "hbm mJ"; "compute mJ"; "static mJ"; "EDP (uJ.s)" ]
  in
  List.iter
    (fun d ->
      match B.plan ~elk_options:bench_elk_options env.D.ctx ~pod:env.D.pod g d with
      | None -> ()
      | Some s ->
          let r = Elk_sim.Sim.run env.D.ctx s in
          let e = Elk_energy.Energy.evaluate env.D.ctx s.Elk.Schedule.graph r in
          let mj x = Printf.sprintf "%.2f" (x *. 1e3) in
          Table.add_row t
            [ B.name d; mj e.Elk_energy.Energy.total_j; mj e.Elk_energy.Energy.hbm_j;
              mj e.Elk_energy.Energy.compute_j; mj e.Elk_energy.Energy.static_j;
              Printf.sprintf "%.2f" (e.Elk_energy.Energy.edp *. 1e9) ])
    [ B.Basic; B.Static; B.Elk_dyn; B.Elk_full ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Compatibility passes (paper 8): fusion and quantization            *)
(* ------------------------------------------------------------------ *)

let compat () =
  let env = Lazy.force default_env in
  let g = decode llama13b ~batch:32 in
  let t =
    Table.create
      ~title:"Paper 8 compatibility: pointwise fusion and weight quantization (Elk-Full)"
      ~columns:[ "variant"; "ops"; "HBM MB"; "latency (us)" ]
  in
  let eval label graph =
    let e = D.evaluate ~elk_options:bench_elk_options env graph B.Elk_full in
    Table.add_row t
      [ label; string_of_int (Graph.length graph);
        Printf.sprintf "%.1f" (Graph.total_hbm_bytes graph /. 1e6);
        us e.D.latency ]
  in
  eval "fp16" g;
  eval "fp16 + fusion" (Elk.Fusion.fuse g);
  eval "int8 weights" (Zoo.cast_dtype Elk_tensor.Dtype.Int8 g);
  eval "int8 + fusion" (Elk.Fusion.fuse (Zoo.cast_dtype Elk_tensor.Dtype.Int8 g));
  Table.print t

(* ------------------------------------------------------------------ *)
(* GPU-style clustered fabric (paper 7, "Apply Elk to GPUs")          *)
(* ------------------------------------------------------------------ *)

let gpu () =
  let g = decode llama13b ~batch:32 in
  let t =
    Table.create
      ~title:
        "Paper 7 GPU-style chip: clusters + shared L2 (inter-SM bw ~ HBM bw) vs all-to-all"
      ~columns:("Topology" :: "L2 x" :: List.map B.name [ B.Basic; B.Static; B.Elk_full; B.Ideal ])
  in
  let row label env =
    Table.add_row t
      (label
      @ List.map
          (fun d -> us (D.evaluate ~elk_options:bench_elk_options env g d).D.latency)
          [ B.Basic; B.Static; B.Elk_full; B.Ideal ])
  in
  row [ "all-to-all"; "-" ] (Lazy.force default_env);
  List.iter
    (fun l2_mult ->
      let base = Elk_arch.Arch.Presets.gpu_like_chip () in
      let l2 =
        match base.Elk_arch.Arch.topology with
        | Elk_arch.Arch.Clustered { clusters; cluster_size; l2_bandwidth } ->
            Elk_arch.Arch.Clustered
              { clusters; cluster_size; l2_bandwidth = l2_mult *. l2_bandwidth }
        | t -> t
      in
      let chip = Elk_arch.Arch.with_topology base l2 in
      let pod = { Elk_arch.Arch.chips = 4; chip; interchip_bandwidth = 27.8e9 } in
      let cost = Elk_cost.Costmodel.train chip in
      let env = { D.pod; ctx = P.make_ctx cost } in
      row [ "clustered"; Printf.sprintf "%.1fx" l2_mult ] env)
    [ 1.; 2.; 4. ];
  Table.print t;
  print_endline
    "With L2 bandwidth ~ HBM bandwidth, inter-cluster exchange and preload traffic\n\
     contend on the shared fabric (paper 7's prediction for H100-class GPUs);\n\
     widening the L2 recovers most of the all-to-all latency.\n"

(* ------------------------------------------------------------------ *)
(* End-to-end serving loop (autoregressive decode, growing KV)        *)
(* ------------------------------------------------------------------ *)

let serve () =
  let env = Lazy.force default_env in
  let t =
    Table.create
      ~title:"Serving loop: 64 generated tokens, batch 32, prompt 192 (KV grows per step)"
      ~columns:[ "Design"; "tok/s"; "first (us)"; "last (us)"; "plans"; "compile (s)" ]
  in
  List.iter
    (fun d ->
      let r =
        Elk_serve.Serve.serve ~design:d ~elk_options:bench_elk_options env llama13b
          ~batch:32 ~prompt_ctx:192 ~tokens:64
      in
      let first =
        match r.Elk_serve.Serve.steps with s :: _ -> s.Elk_serve.Serve.latency | [] -> 0.
      in
      Table.add_row t
        [ B.name d;
          Printf.sprintf "%.0f" r.Elk_serve.Serve.tokens_per_second;
          us first; us (Elk_serve.Serve.last_latency r);
          string_of_int r.Elk_serve.Serve.recompilations;
          Printf.sprintf "%.2f" r.Elk_serve.Serve.compile_time ])
    [ B.Basic; B.Static; B.Elk_dyn; B.Elk_full ];
  Table.print t;
  (* End-to-end workload: a seeded Poisson arrival stream through the
     batching front-end, snapshotted as BENCH_serve.json.  The snapshot
     is Tracediff-comparable (latency percentiles as segments), so
     serving-SLO regressions show in `elk trace diff`.  Every value is
     simulated -> byte-stable across machines and jobs counts. *)
  let seed = 7 in
  let spec =
    Option.get
      (Elk_serve.Workload.preset "poisson" ~rate:500. ~prompt_mean:128
         ~output_mean:16)
  in
  let reqs = Elk_serve.Workload.generate ~seed ~n:24 spec in
  let result =
    Elk_serve.Frontend.run ~elk_options:bench_elk_options ~max_batch:8 env
      llama13b reqs
  in
  let report =
    Elk_serve.Slo.of_result ~slo_ttft:0.05 ~slo_itl:0.005 ~workload:"poisson"
      ~seed result
  in
  Elk_serve.Slo.print report;
  write_snapshot "serve" (Elk_serve.Slo.to_json report ^ "\n")

(* ------------------------------------------------------------------ *)
(* Simulator validation (paper 5: emulator-vs-simulator agreement)    *)
(* ------------------------------------------------------------------ *)

let validate () =
  let env = Lazy.force default_env in
  let t =
    Table.create
      ~title:
        "Simulator vs analytic-timeline agreement (paper validates its simulator against the emulator)"
      ~columns:[ "Model"; "Design"; "analytic (us)"; "simulated (us)"; "diff" ]
  in
  let diffs = ref [] in
  List.iter
    (fun cfg ->
      let g = decode cfg ~batch:32 in
      List.iter
        (fun d ->
          match B.plan ~elk_options:bench_elk_options env.D.ctx ~pod:env.D.pod g d with
          | None -> ()
          | Some s ->
              let tl = Elk.Timeline.evaluate env.D.ctx s in
              let r = Elk_sim.Sim.run env.D.ctx s in
              let diff =
                Float.abs (r.Elk_sim.Sim.total -. tl.Elk.Timeline.total)
                /. r.Elk_sim.Sim.total
              in
              diffs := diff :: !diffs;
              Table.add_row t
                [ cfg.Zoo.cfg_name; B.name d; us tl.Elk.Timeline.total;
                  us r.Elk_sim.Sim.total; pct diff ])
        [ B.Basic; B.Static; B.Elk_dyn ])
    llm_cfgs;
  Table.print t;
  Printf.printf "mean |sim - analytic| / sim = %s (max %s)\n\n"
    (pct (Stats.mean !diffs))
    (pct (List.fold_left Float.max 0. !diffs))

(* ------------------------------------------------------------------ *)
(* Full-scale (unscaled) IPU-POD4 headline run                        *)
(* ------------------------------------------------------------------ *)

let full () =
  let chip = Elk_arch.Arch.Presets.ipu_mk2_full in
  let pod = Elk_arch.Arch.Presets.ipu_pod4_full in
  let cost = Elk_cost.Costmodel.train chip in
  let env = { D.pod; ctx = P.make_ctx cost } in
  let t =
    Table.create
      ~title:
        "Full-scale IPU-POD4 (4 x 1472 cores, 624 KB/core, 16 TB/s HBM), unscaled models, batch 32, ctx 2048"
      ~columns:("Model" :: "metric" :: List.map B.name B.all)
  in
  List.iter
    (fun cfg ->
      let g = Zoo.build cfg (Zoo.Decode { batch = 32; ctx = 2048 }) in
      let evals =
        List.map (fun d -> D.evaluate ~elk_options:bench_elk_options env g d) B.all
      in
      Table.add_row t
        (cfg.Zoo.cfg_name :: "latency (us)"
        :: List.map (fun (e : D.eval) -> us e.D.latency) evals);
      Table.add_row t
        (cfg.Zoo.cfg_name :: "HBM util"
        :: List.map (fun (e : D.eval) -> pct e.D.hbm_util) evals);
      Table.add_row t
        (cfg.Zoo.cfg_name :: "TFLOPS"
        :: List.map (fun (e : D.eval) -> Printf.sprintf "%.0f" e.D.tflops) evals))
    [ Zoo.llama2_13b; Zoo.llama2_70b ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Resource-attribution snapshot (BENCH_attrib.json)                  *)
(* ------------------------------------------------------------------ *)

(* Emit the bottleneck report for the headline configuration and write a
   compact JSON snapshot; test/cram/snapshots.t compares it with the
   committed copy to flag silent simulator-timing drift.  Values
   are rounded to 4 significant digits: enough to catch real timing
   changes, coarse enough to survive benign float-noise differences. *)
let attrib () =
  with_headline (fun env g s ->
      let r = Elk_sim.Sim.run env.D.ctx s in
      check "ATTRIBUTION LEAK"
        (Elk_sim.Perfcore.check r.Elk_sim.Sim.perf ~total:r.Elk_sim.Sim.total);
      let rep = Elk_analyze.Analyze.analyze ~top:4 s r in
      Elk_analyze.Analyze.print ~top_ops:5 rep;
      let module A = Elk_analyze.Analyze in
      let num v = Printf.sprintf "%.4g" v in
      let res_obj f =
        "{"
        ^ String.concat ","
            (List.map
               (fun res -> Printf.sprintf "\"%s\":%s" (A.resource_name res) (f res))
               A.all_resources)
        ^ "}"
      in
      let json =
        Printf.sprintf
          "{\"model\":%S,\"design\":%S,\"total_us\":%s,\"imbalance\":%s,\n\
           \"resource_us\":%s,\n\"headroom_us\":%s,\n\"mix\":%s,\n\
           \"hbm_mean_gbps\":%s,\"noc_mean_gbps\":%s}\n"
          (Graph.name g) (B.name B.Elk_full)
          (num (rep.A.total *. 1e6))
          (num rep.A.imbalance)
          (res_obj (fun res -> num (List.assoc res rep.A.resource_totals *. 1e6)))
          (res_obj (fun res -> num (List.assoc res rep.A.headroom *. 1e6)))
          (res_obj (fun res -> string_of_int (List.assoc res rep.A.mix)))
          (num (rep.A.hbm_mean /. 1e9))
          (num (rep.A.noc_mean /. 1e9))
      in
      write_snapshot "attrib" json)

(* ------------------------------------------------------------------ *)
(* Compile-time baseline (BENCH_compile.json)                         *)
(* ------------------------------------------------------------------ *)

(* Time the full [Compile.compile] order search sequentially and on the
   parallel pool, per model x topology, and snapshot the numbers next to
   the repo's committed copy.  Wall-clock compile times are inherently
   machine-dependent, so CI diffs this file non-blocking (unlike
   BENCH_attrib.json); the [plan_identical] flags, however, must stay
   true — they re-check the determinism contract of the parallel search
   on the benchmark workloads themselves.

   A second section measures the steady-state serving recompile: the
   ctx-bucket ladder a batching front-end walks as contexts grow,
   compiled cold (empty cache) and then warm (compile cache on).  Warm
   compiles are whole-plan hits and must be byte-identical to cold. *)
let compile_bench () =
  let max_orders = 24 in
  (* Counters (orders pruned/tried) only record while obs is on. *)
  let was_enabled = Elk_obs.Control.is_enabled () in
  Elk_obs.Control.enable ();
  (* The jobs comparison times full searches; a cache hit on the second
     jobs level would make it vacuous. *)
  let was_cache = Elk.Compilecache.enabled () in
  Elk.Compilecache.set_enabled false;
  (* At the 25% default these four compiles already prune 20-23 orders
     each, all after a full induction (no scheduler run stops
     mid-induction).  A 10% margin also stops hopeless inductions early
     (11 of llama2-13b's orders on each topology) while keeping every
     near-winner in the race.  The [pruned] column counts both kinds. *)
  let opts = { bench_elk_options with Elk.Compile.max_orders; prune_margin = 0.1 } in
  let counter name =
    match List.assoc_opt name (Elk_obs.Metrics.counters ()) with
    | Some v -> v
    | None -> 0.
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Compile time: sequential vs parallel order search (max_orders=%d)"
           max_orders)
      ~columns:[ "Model"; "Topology"; "jobs"; "compile (s)"; "orders"; "pruned"; "speedup" ]
  in
  let rows = ref [] in
  let speedups = ref [] in
  List.iter
    (fun cfg ->
      List.iter
        (fun (tname, topology) ->
          let g = decode cfg ~batch:32 in
          let runs =
            List.map
              (fun jobs ->
                (* A fresh env per run: memo caches warmed by the previous
                   jobs level would flatter the second measurement. *)
                let env = D.env ~topology () in
                Elk_util.Pool.set_jobs jobs;
                let pruned0 = counter "elk_compile_orders_pruned_total" in
                let c = Elk.Compile.compile ~options:opts env.D.ctx ~pod:env.D.pod g in
                let pruned =
                  int_of_float (counter "elk_compile_orders_pruned_total" -. pruned0)
                in
                (jobs, c, pruned))
              [ 1; 4 ]
          in
          let seq_time =
            match runs with (_, c, _) :: _ -> c.Elk.Compile.compile_seconds | [] -> 0.
          in
          let seq_plan =
            match runs with (_, c, _) :: _ -> Elk.Planio.export c.Elk.Compile.schedule | [] -> ""
          in
          List.iter
            (fun (jobs, c, pruned) ->
              let speedup = seq_time /. Float.max 1e-9 c.Elk.Compile.compile_seconds in
              let identical = Elk.Planio.export c.Elk.Compile.schedule = seq_plan in
              Table.add_row t
                [ cfg.Zoo.cfg_name; tname; string_of_int jobs;
                  Printf.sprintf "%.2f" c.Elk.Compile.compile_seconds;
                  string_of_int c.Elk.Compile.orders_tried; string_of_int pruned;
                  (if jobs = 1 then "-" else Printf.sprintf "%.2fx" speedup) ];
              rows :=
                Printf.sprintf
                  "{\"model\":%S,\"topology\":%S,\"jobs\":%d,\"compile_s\":%.3f,\
                   \"orders_tried\":%d,\"pruned\":%d,\"latency_us\":%.4g}"
                  cfg.Zoo.cfg_name tname jobs c.Elk.Compile.compile_seconds
                  c.Elk.Compile.orders_tried pruned
                  (Elk.Compile.latency c *. 1e6)
                :: !rows;
              if jobs <> 1 then
                speedups :=
                  Printf.sprintf
                    "{\"model\":%S,\"topology\":%S,\"jobs\":%d,\"speedup\":%.2f,\
                     \"plan_identical\":%b}"
                    cfg.Zoo.cfg_name tname jobs speedup identical
                  :: !speedups)
            runs)
        [ ("a2a", `All_to_all); ("mesh", `Mesh) ])
    [ llama13b; gemma27b ];
  Elk_util.Pool.set_jobs 1;
  Table.print t;
  (* ---- steady-state serving recompiles: cold vs warm ------------- *)
  Elk.Compilecache.set_enabled true;
  let lt =
    Table.create
      ~title:
        "Steady-state recompile: serving ctx-bucket ladder, cold vs warm (compile cache)"
      ~columns:[ "Model"; "Topology"; "ctx"; "cold (s)"; "warm (s)"; "speedup"; "identical" ]
  in
  let ladder = ref [] in
  let buckets = [ 64; 128; 192; 256 ] in
  List.iter
    (fun (tname, topology) ->
      let env = D.env ~topology () in
      let compile g = Elk.Compile.compile ~options:opts env.D.ctx ~pod:env.D.pod g in
      Elk.Compilecache.reset ();
      let pass () =
        List.map
          (fun ctx -> (ctx, compile (Zoo.build llama13b (Zoo.Decode { batch = 8; ctx }))))
          buckets
      in
      (* Cold pass: empty cache.  Later buckets still reuse the earlier
         buckets' partition memos — exactly what a serving session sees
         as contexts grow. *)
      let cold = pass () in
      (* Warm pass: every bucket is a whole-plan hit. *)
      let warm = pass () in
      List.iter2
        (fun (ctx, (co : Elk.Compile.t)) (_, (wa : Elk.Compile.t)) ->
          let identical =
            Elk.Planio.export co.Elk.Compile.schedule
            = Elk.Planio.export wa.Elk.Compile.schedule
          in
          let speedup =
            co.Elk.Compile.compile_seconds
            /. Float.max 1e-9 wa.Elk.Compile.compile_seconds
          in
          Table.add_row lt
            [ llama13b.Zoo.cfg_name; tname; string_of_int ctx;
              Printf.sprintf "%.3f" co.Elk.Compile.compile_seconds;
              Printf.sprintf "%.6f" wa.Elk.Compile.compile_seconds;
              Printf.sprintf "%.0fx" speedup;
              (if identical then "yes" else "NO") ];
          ladder :=
            Printf.sprintf
              "{\"model\":%S,\"topology\":%S,\"ctx\":%d,\"cold_s\":%.4f,\
               \"warm_s\":%.6f,\"speedup\":%.1f,\"plan_identical\":%b}"
              llama13b.Zoo.cfg_name tname ctx co.Elk.Compile.compile_seconds
              wa.Elk.Compile.compile_seconds speedup identical
            :: !ladder)
        cold warm)
    [ ("a2a", `All_to_all); ("mesh", `Mesh) ];
  Elk.Compilecache.reset ();
  Elk.Compilecache.set_enabled was_cache;
  if not was_enabled then Elk_obs.Control.disable ();
  Table.print lt;
  let json =
    Printf.sprintf
      "{\"max_orders\":%d,\"jobs_levels\":[1,4],\n\"runs\":[\n%s\n],\n\
       \"speedups\":[\n%s\n],\n\"serving_ladder\":[\n%s\n]}\n"
      max_orders
      (String.concat ",\n" (List.rev !rows))
      (String.concat ",\n" (List.rev !speedups))
      (String.concat ",\n" (List.rev !ladder))
  in
  write_snapshot "compile" json

(* ------------------------------------------------------------------ *)
(* Recorder snapshots (BENCH_critpath/mem/noc.json)                   *)
(* ------------------------------------------------------------------ *)

(* Snapshot one simulator recorder's report on the headline run, after
   re-checking the zero-cost contract of the recording path: [record]
   must leave the simulated timeline unchanged.  [report] checks and
   prints the report of the [record] run and returns the snapshot.  What
   recording costs in wall-clock time is perfbench's [sim.overhead.*]. *)
let recorded_snapshot name ~record report =
  with_headline (fun env g s ->
      let r = record env.D.ctx s in
      let plain = Elk_sim.Sim.run env.D.ctx s in
      if r.Elk_sim.Sim.total <> plain.Elk_sim.Sim.total then
        fail "RECORDING PERTURBED THE TIMELINE"
          (Printf.sprintf "%.9g vs %.9g" r.Elk_sim.Sim.total plain.Elk_sim.Sim.total);
      write_snapshot name (report env g s r))

(* The [elk mem]/[elk noc] snapshot shape: the CLI's JSON with the
   design spliced after the opening brace, so the Tracediff core keeps
   its shape. *)
let with_design body =
  Printf.sprintf "{\"design\":%S,%s\n" (B.name B.Elk_full)
    (String.sub body 1 (String.length body - 1))

(* The causal critical path in the [elk critpath --json-out] shape (plus
   the model and design), so test/cram/snapshots.t can [elk trace diff]
   a fresh snapshot against the committed copy.  Segments pre-aggregate
   by (name, kind, resource) — the same key Tracediff folds on — and
   values round to 4 significant digits, like BENCH_attrib.json.  Both
   checks [elk critpath] runs must pass. *)
let critpath_bench () =
  recorded_snapshot "critpath" ~record:(fun ctx s -> Elk_sim.Sim.run ~events:true ctx s)
    (fun _ g s r ->
      let module Cp = Elk_sim.Critpath in
      let module A = Elk_analyze.Analyze in
      let ev = Option.get r.Elk_sim.Sim.events in
      check "CRITPATH LEAK" (Cp.check ev ~total:r.Elk_sim.Sim.total);
      let sum = Cp.extract ev in
      check "CRITPATH/ATTRIBUTION CROSS-CHECK FAILED"
        (A.headroom_check (A.analyze s r) sum);
      Cp.print ~top:5 ~top_segments:8 s.Elk.Schedule.graph sum;
      let num v = Printf.sprintf "%.4g" v in
      let tbl = Hashtbl.create 64 and order = ref [] in
      List.iter
        (fun seg ->
          let name =
            if seg.Cp.s_op < 0 then "-"
            else
              (Graph.get s.Elk.Schedule.graph seg.Cp.s_op).Graph.op
                .Elk_tensor.Opspec.name
          in
          let key =
            (name, Cp.kind_name seg.Cp.s_kind, Cp.resource_name seg.Cp.s_res)
          in
          match Hashtbl.find_opt tbl key with
          | Some cur -> Hashtbl.replace tbl key (cur +. seg.Cp.s_dur)
          | None ->
              Hashtbl.add tbl key seg.Cp.s_dur;
              order := key :: !order)
        sum.Cp.segments;
      let seg_rows =
        List.rev_map
          (fun ((name, kind, res) as key) ->
            Printf.sprintf "{\"name\":%S,\"kind\":%S,\"resource\":%S,\"dur\":%s}"
              name kind res
              (num (Hashtbl.find tbl key)))
          !order
      in
      let res_obj =
        "{"
        ^ String.concat ","
            (List.map
               (fun (res, v) ->
                 Printf.sprintf "\"%s\":%s" (Cp.resource_name res) (num v))
               sum.Cp.resource_seconds)
        ^ "}"
      in
      Printf.sprintf
        "{\"model\":%S,\"design\":%S,\"total\":%s,\"dominant\":%S,\n\
         \"resource_seconds\":%s,\n\
         \"events\":%d,\n\"segments\":[\n%s\n]}\n"
        (Graph.name g) (B.name B.Elk_full) (num sum.Cp.total)
        (Cp.resource_name (Cp.dominant sum))
        res_obj (Array.length ev)
        (String.concat ",\n" seg_rows))

(* The headline run's SRAM residency report, in the [elk mem --json-out]
   shape. *)
let mem_bench () =
  recorded_snapshot "mem" ~record:(fun ctx s -> Elk_sim.Sim.run ~mem:true ctx s)
    (fun env _ s r ->
      let module Mp = Elk_analyze.Memprof in
      let rep = Mp.analyze env.D.ctx s r in
      check "MEMORY INVARIANT VIOLATED" (Mp.check rep);
      Mp.print ~top:5 rep;
      with_design (Mp.to_json ~top:8 rep))

(* The headline run's interconnect congestion report, in the
   [elk noc --json-out] shape. *)
let noc_bench () =
  recorded_snapshot "noc" ~record:(fun ctx s -> Elk_sim.Sim.run ~noc:true ctx s)
    (fun _ _ s r ->
      let module Np = Elk_analyze.Nocprof in
      let rep = Np.analyze s r in
      check "INTERCONNECT INVARIANT VIOLATED" (Np.check rep);
      Np.print ~top:5 rep;
      with_design (Np.to_json ~top:8 rep))

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table2", table2);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig12", fig12);
    ("fig16", fig16);
    ("fig17", fig17);
    ("fig18", fig18);
    ("fig19", fig19);
    ("fig20", fig20);
    ("fig21", fig21);
    ("fig22", fig22);
    ("fig23", fig23);
    ("fig24", fig24);
    ("ablation", ablation);
    ("pipeline", pipeline);
    ("compat", compat);
    ("gpu", gpu);
    ("serve", serve);
    ("validate", validate);
    ("full", full);
    ("energy", energy);
    ("attrib", attrib);
    ("compile", compile_bench);
    ("critpath", critpath_bench);
    ("mem", mem_bench);
    ("noc", noc_bench);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  (* Reject a mistyped name before running anything. *)
  (match List.find_opt (fun name -> not (List.mem_assoc name experiments)) requested with
  | Some name ->
      Printf.eprintf "unknown experiment %S; available: %s\n" name
        (String.concat ", " (List.map fst experiments));
      exit 2
  | None -> ());
  List.iter
    (fun name ->
      let t0 = Unix.gettimeofday () in
      (List.assoc name experiments) ();
      Printf.printf "[%s done in %.1fs]\n\n%!" name (Unix.gettimeofday () -. t0))
    requested
