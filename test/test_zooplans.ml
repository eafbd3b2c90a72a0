(* The twelve zoo plans pinned byte for byte.  perfbench's zoo-compile
   workload compiles these plans: the six Zoo models on the all-to-all
   and the mesh pod ([Dse.env]), at bench/main.ml's scaled evaluation
   config, with [Compile.default_options].  Each plan's [Planio.export]
   MD5 must equal the committed digest below, so every tier-1 pass
   (plain, [ELK_JOBS=4], [ELK_COMPILE_CACHE=0]) holds the whole zoo to
   the byte-identity contract.  A change that means to alter a plan
   states so and replaces the list with the one the failure prints. *)

open Elk_model
module D = Elk_dse.Dse

(* bench/main.ml's scaled evaluation config: width / 8, per-model depth
   factors (mixtral-8x7b / 10), decode at batch 32 and ctx 256, DiT-XL
   at batch 2. *)
let layer_factor (cfg : Zoo.config) =
  match cfg.Zoo.cfg_name with
  | "llama2-13b" -> 10
  | "gemma2-27b" -> 11
  | "opt-30b" -> 12
  | "llama2-70b" -> 20
  | "dit-xl" -> 7
  | _ -> 10

let zoo_graph cfg =
  let cfg = Zoo.scale cfg ~factor:8 ~layer_factor:(layer_factor cfg) in
  let batch = if cfg.Zoo.family = Zoo.Dit then 2 else 32 in
  Zoo.build cfg (Zoo.Decode { batch; ctx = 2048 / 8 })

let pinned =
  [
    ("llama2-13b/8x10@a2a", "27cf568b02c81e44991ca954b50305b9");
    ("gemma2-27b/8x11@a2a", "13dc96dac10ac5e9aa9c9c82c532b8ae");
    ("opt-30b/8x12@a2a", "9018f157e076705bb69e80992fd83f51");
    ("llama2-70b/8x20@a2a", "1cc2a33ad104d381990faef988018ec5");
    ("dit-xl/8x7@a2a", "9494f2210c7fc6d083c00e9131544eb0");
    ("mixtral-8x7b/8x10@a2a", "c33e65caf2f9d1d0278dfb5abdfba23c");
    ("llama2-13b/8x10@mesh", "3483d4a739100202ecae038d53207728");
    ("gemma2-27b/8x11@mesh", "ddb0146ab2e9dcd3804f89a51e59ac39");
    ("opt-30b/8x12@mesh", "1c5b10d3f7d67747d2e3138b320d5b66");
    ("llama2-70b/8x20@mesh", "7ebe75bc239a5b42e2cfa62d86cd0376");
    ("dit-xl/8x7@mesh", "9288e71ca407735f2e5fa04c26b806e1");
    ("mixtral-8x7b/8x10@mesh", "88dc208a82a882cb675d7294555d4edf");
  ]

let digests () =
  List.concat_map
    (fun (tname, topology) ->
      let env = D.env ~topology () in
      List.map
        (fun cfg ->
          let g = zoo_graph cfg in
          let c = Elk.Compile.compile env.D.ctx ~pod:env.D.pod g in
          ( Graph.name g ^ "@" ^ tname,
            Digest.to_hex (Digest.string (Elk.Planio.export c.Elk.Compile.schedule)) ))
        Zoo.all)
    [ ("a2a", `All_to_all); ("mesh", `Mesh) ]

let test_zoo_plans_pinned () =
  let fresh = digests () in
  if fresh <> pinned then
    Alcotest.failf
      "zoo plan digests differ from the pinned list; if the plan change is \
       intended and stated, the fresh list is:\n\
       let pinned =\n  [\n%s  ]"
      (String.concat ""
         (List.map (fun (label, d) -> Printf.sprintf "    (%S, %S);\n" label d) fresh))

let suite =
  [ Alcotest.test_case "12 zoo plans match the pinned digests" `Quick test_zoo_plans_pinned ]
