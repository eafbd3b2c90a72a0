(* The twelve zoo plans pinned byte for byte.  perfbench's zoo-compile
   workload compiles these plans: the six Zoo models on the all-to-all
   and the mesh pod ([Dse.env]), at bench/main.ml's scaled evaluation
   config, with [Compile.default_options].  Each plan's [Planio.export]
   MD5 must equal the committed digest below, so every tier-1 pass
   (plain, [ELK_JOBS=4], [ELK_COMPILE_CACHE=0]) holds the whole zoo to
   the byte-identity contract.  A second pin covers what the simulator
   derives from each plan: a plain [Sim.run]'s [Analyze] report, its
   counter tracks and every core's Perfcore buckets.  A change that
   means to alter a plan or a simulated number states so and replaces
   the list with the one the failure prints. *)

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

(* The twelve plans, compiled once for both pins. *)
let plans =
  lazy
    (List.concat_map
       (fun (tname, topology) ->
         let env = D.env ~topology () in
         List.map
           (fun cfg ->
             let g = zoo_graph cfg in
             let c = Elk.Compile.compile env.D.ctx ~pod:env.D.pod g in
             (Graph.name g ^ "@" ^ tname, env, c.Elk.Compile.schedule))
           Zoo.all)
       [ ("a2a", `All_to_all); ("mesh", `Mesh) ])

let md5 s = Digest.to_hex (Digest.string s)

(* A failure prints the fresh list in the committed list's syntax. *)
let check_pinned name show pinned fresh =
  if fresh <> pinned then
    Alcotest.failf
      "zoo digests differ from [%s]; if the change is intended and stated, \
       the fresh list is:\n\
       let %s =\n  [\n%s  ]"
      name name
      (String.concat "" (List.map (fun e -> "    " ^ show e ^ ";\n") fresh))

let test_zoo_plans_pinned () =
  check_pinned "pinned"
    (fun (label, d) -> Printf.sprintf "(%S, %S)" label d)
    pinned
    (List.map
       (fun (label, _, s) -> (label, md5 (Elk.Planio.export s)))
       (Lazy.force plans))

(* Per plan: the [Analyze.to_json] report, its counter tracks, and every
   core's five buckets at full precision ([%h]). *)
let pinned_views =
  [
    ("llama2-13b/8x10@a2a", "a3c321584c23565b2920e8011df434ff", "524a0df8f082a3cb8a4ac8075da9233a", "1c380a75777c928919b72e5358c4406e");
    ("gemma2-27b/8x11@a2a", "e983df3f7878e52a9018b289ec04d4b1", "d6d1872662b2145c9b647e9448c1239e", "e23b18893b5192053c7d3975de89875d");
    ("opt-30b/8x12@a2a", "a883fcde62fe18e7578b00d303be2a76", "fd8b02302f8e378c95dbd62e66a5d970", "1c787ea8f3d545cfb25a73e44a8f40a1");
    ("llama2-70b/8x20@a2a", "0e61e3007263bf3a8404ac5d54f8f98f", "d950a329072b1c66d77ddda601d0dc75", "d641dcee50e40a2104ca5a9ca3d44114");
    ("dit-xl/8x7@a2a", "0202478ca16f5f830b8f942d9f015d16", "2c2ef7619ed9242e97922cf0a5fe91a3", "07b440f96d2cb8e0b7848baaa0956255");
    ("mixtral-8x7b/8x10@a2a", "cf6a234edd70d4aa809c45e35f57aaca", "3225a1ec08b538ce41215c4c8d3f18e6", "028d54f33c28157ee1b94de7681de179");
    ("llama2-13b/8x10@mesh", "91acc7f3963c6f770b87373ad3fe6ada", "5c146c683861dc1a002c94db39bea72a", "396ee83e4af152440313879cb047a4a0");
    ("gemma2-27b/8x11@mesh", "ef4023ff6c73680e2acdf2715c087918", "0df73c9cc8d3a9a23607ed6486979a3d", "e42624bf7ee9de3d4e07ed03901c15a1");
    ("opt-30b/8x12@mesh", "b073765396ab18b0e1f0a6c98969ad5c", "0b05e8f0c9f9562c67ca636825bf5b53", "cde4581c6f4ee3a969b69a929873ae10");
    ("llama2-70b/8x20@mesh", "78b669c42df985e89d005ea2cfdb688c", "3a7747e9aeb11bd9f0d1031bc55462e6", "8c8a9bd23da0657c2b7b0b4206055d9c");
    ("dit-xl/8x7@mesh", "34c4c734cedca39146c9c31e05bda475", "9ff9c368f80ba07024da144ec710f75e", "77c394db7a31cb2d920ec6482f2c9fbe");
    ("mixtral-8x7b/8x10@mesh", "0571eee02c8cc6aa7fa36ddf40eb71a0", "65aeedde5d8483351412f7e279577bc1", "e11a5e114d9c4679c93b724f5499ccd3");
  ]

let test_zoo_views_pinned () =
  let module A = Elk_analyze.Analyze in
  let module Pc = Elk_sim.Perfcore in
  check_pinned "pinned_views"
    (fun (label, j, c, b) -> Printf.sprintf "(%S, %S, %S, %S)" label j c b)
    pinned_views
    (List.map
       (fun (label, env, s) ->
         let r = Elk_sim.Sim.run env.D.ctx s in
         let rep = A.analyze s r in
         let buckets =
           Array.to_list r.Elk_sim.Sim.perf.Pc.per_core
           |> List.map (fun (b : Pc.buckets) ->
                  Printf.sprintf "%h %h %h %h %h\n" b.Pc.compute b.Pc.exchange
                    b.Pc.preload_wait b.Pc.port b.Pc.idle)
         in
         ( label,
           md5 (A.to_json rep),
           md5 (String.concat "\n" (A.chrome_counter_events rep)),
           md5 (String.concat "" buckets) ))
       (Lazy.force plans))

let suite =
  [
    Alcotest.test_case "12 zoo plans match the pinned digests" `Quick test_zoo_plans_pinned;
    Alcotest.test_case "12 zoo plans' simulator views match the pinned digests" `Quick
      test_zoo_views_pinned;
  ]
