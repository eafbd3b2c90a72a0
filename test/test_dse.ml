open Elk_dse
module B = Elk_baselines.Baselines

let model () = Lazy.force Tu.tiny_llama

let test_env_topology () =
  let m = Dse.env ~topology:`Mesh ~cores:16 () in
  (match m.Dse.pod.Elk_arch.Arch.chip.Elk_arch.Arch.topology with
  | Elk_arch.Arch.Mesh2d { rows; cols } -> Alcotest.(check int) "4x4" 16 (rows * cols)
  | Elk_arch.Arch.All_to_all | Elk_arch.Arch.Clustered _ -> Alcotest.fail "expected mesh");
  (* Mesh preset widens links 4x. *)
  let a = Dse.env ~cores:16 () in
  Tu.check_rel "mesh links 4x" ~tolerance:1e-9
    (4. *. a.Dse.pod.Elk_arch.Arch.chip.Elk_arch.Arch.intercore_link.Elk_arch.Arch.bandwidth)
    m.Dse.pod.Elk_arch.Arch.chip.Elk_arch.Arch.intercore_link.Elk_arch.Arch.bandwidth

let test_env_sram_override () =
  let e = Dse.env ~sram_per_core:(64. *. 1024.) () in
  Tu.check_float "sram" (64. *. 1024.)
    e.Dse.pod.Elk_arch.Arch.chip.Elk_arch.Arch.sram_per_core

let test_evaluate_all_order () =
  let e = Dse.env () in
  let evals = Dse.evaluate_all e (model ()) in
  Alcotest.(check (list string)) "design order"
    (List.map B.name B.all)
    (List.map (fun (v : Dse.eval) -> B.name v.Dse.design) evals)

let test_designs_ordered_by_quality () =
  let e = Dse.env () in
  let l d = (Dse.evaluate e (model ()) d).Dse.latency in
  let basic = l B.Basic and dyn = l B.Elk_dyn and ideal = l B.Ideal in
  Alcotest.(check bool) "basic >= elk-dyn" true (basic >= dyn *. 0.999);
  Alcotest.(check bool) "elk-dyn >= ideal" true (dyn >= ideal *. 0.98)

let test_slower_link_not_faster () =
  let g = model () in
  let fast = Dse.env () in
  let slow = Dse.env ~link_bw:2.75e9 () in
  let l e = (Dse.evaluate ~elk_options:Elk.Compile.dyn_options e g B.Elk_dyn).Dse.latency in
  Alcotest.(check bool) "half links not faster" true (l slow >= l fast *. 0.98)

let test_noc_split_sums () =
  let e = Dse.env () in
  match (Dse.evaluate e (model ()) B.Elk_dyn).Dse.sim with
  | None -> Alcotest.fail "expected a simulated run"
  | Some r ->
      let ic, pre = r.Elk_sim.Sim.noc_util_split in
      Tu.check_rel "split sums to total" ~tolerance:1e-9 r.Elk_sim.Sim.noc_util (ic +. pre);
      Alcotest.(check bool) "both nonneg" true (ic >= 0. && pre >= 0.)

let test_elk_full_sim_selected () =
  (* Elk-Full in the DSE path is sim-selected; its latency can never be
     worse than Elk-Dyn's (identity order is always among candidates). *)
  let e = Dse.env () in
  let full = (Dse.evaluate e (model ()) B.Elk_full).Dse.latency in
  let dyn = (Dse.evaluate e (model ()) B.Elk_dyn).Dse.latency in
  Alcotest.(check bool) "full <= dyn" true (full <= dyn *. 1.001)

let test_flops_scale_helps_prefill () =
  let cfg = Elk_model.Zoo.scale Elk_model.Zoo.llama2_13b ~factor:16 ~layer_factor:20 in
  let g = Elk_model.Zoo.build cfg (Elk_model.Zoo.Prefill { batch = 2; seq = 64 }) in
  let l fs = (Dse.evaluate ~elk_options:Elk.Compile.dyn_options (Dse.env ~flops_scale:fs ()) g B.Elk_dyn).Dse.latency in
  Alcotest.(check bool) "4x flops helps compute-bound" true (l 4. < l 1. *. 0.9)


let test_gpu_env_contends () =
  (* Paper 7: with L2 bandwidth ~ HBM bandwidth, the clustered chip is
     slower than the all-to-all chip on the same workload. *)
  let g = model () in
  let a2a = Dse.env () and gpu = Dse.env ~topology:`Gpu () in
  let l e = (Dse.evaluate ~elk_options:Elk.Compile.dyn_options e g B.Elk_dyn).Dse.latency in
  Alcotest.(check bool) "gpu slower" true (l gpu > l a2a)

(* Elk-Full's simulator-chosen plan is an emitted plan: it must pass the
   compiler's verifier gate like every compiled one. *)
let test_elk_full_gated () =
  let e = Dse.env () in
  let gate = Elk.Compile.verifier () in
  Elk.Compile.set_verifier (Some (fun _ _ _ -> Error "rejects every plan"));
  Fun.protect
    ~finally:(fun () -> Elk.Compile.set_verifier gate)
    (fun () ->
      match Dse.evaluate e (model ()) B.Elk_full with
      | _ -> Alcotest.fail "an Elk-Full plan the verifier rejects was evaluated"
      | exception Elk.Compile.Rejected m ->
          Alcotest.(check string) "the verifier's message" "rejects every plan" m)

let suite =
  [
    ("dse: mesh env", `Quick, test_env_topology);
    ("dse: sram override", `Quick, test_env_sram_override);
    ("dse: evaluate_all order", `Slow, test_evaluate_all_order);
    ("dse: quality ordering", `Slow, test_designs_ordered_by_quality);
    ("dse: link bandwidth direction", `Slow, test_slower_link_not_faster);
    ("dse: noc split", `Slow, test_noc_split_sums);
    ("dse: elk-full sim-selected", `Slow, test_elk_full_sim_selected);
    ("dse: flops scaling on prefill", `Slow, test_flops_scale_helps_prefill);
    ("dse: gpu fabric contends", `Slow, test_gpu_env_contends);
    ("dse: elk-full plan passes the verifier gate", `Slow, test_elk_full_gated);
  ]
