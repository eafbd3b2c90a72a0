(* The twelve zoo plans pinned byte for byte.  perfbench's zoo-compile
   workload compiles these plans: the six Zoo models on the all-to-all
   and the mesh pod ([Dse.env]), at bench/main.ml's scaled evaluation
   config, with [Compile.default_options].  Each plan's [Planio.export]
   MD5 must equal the committed digest below, so every tier-1 pass
   (plain, [ELK_JOBS=4], [ELK_COMPILE_CACHE=0]) holds the whole zoo to
   the byte-identity contract.  A second pin covers what the simulator
   derives from each plan: a plain [Sim.run]'s [Analyze] report, its
   counter tracks and every core's Perfcore buckets.  A third pins the
   interconnect and memory views of a recorded run at two window
   widths, on both topologies.  Another pins the verifier's report on
   the twelve plans, four serve plans and one overflowing schedule.  Two
   more pin the search behind each plan: its chip graph's exec frontiers
   and its order search's survivors.  A change that means to alter a
   plan, a frontier, a simulated number or a diagnostic states so and
   replaces the list with the one the failure prints. *)

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

(* Per plan and window (the makespan / 48 default, then 1e-6 s), from
   one [Sim.run ~mem:true ~noc:true]: the Nocprof report's JSON, its
   rendered tables and heatmap, its counter tracks, and the Memprof
   report's JSON and counter tracks.  Both reports' checks must pass. *)
let pinned_records =
  [
    ("llama2-13b/8x10@a2a default", "6980e9add73658dd920f91f669787fd5", "583d3ec947b5faeec4424fea19db1188", "5763ff5d84203a73d2201062d7b70c3f", "91f2e7d191668a35b24fe84634b271a2", "6b3d0dc931045f7760edad596162a9a6");
    ("llama2-13b/8x10@a2a 1e-6", "94d9f23ac298e09774e0d7411bc66b2f", "583d3ec947b5faeec4424fea19db1188", "5763ff5d84203a73d2201062d7b70c3f", "7849360c107777d90272316fec57b0a0", "6b3d0dc931045f7760edad596162a9a6");
    ("gemma2-27b/8x11@a2a default", "ff186cab07559d2daffaa96b5086216c", "a01fb1bf417a51b4206c86b8c8b48140", "fdab3db4cf9c19eea4d0cbfcc93403e6", "bc8b5a72a636db18acff628758c1e288", "4d41aff2125c0408d932c59117927b37");
    ("gemma2-27b/8x11@a2a 1e-6", "44d71a5c6096c17841d83fdf5c9a4c36", "a01fb1bf417a51b4206c86b8c8b48140", "fdab3db4cf9c19eea4d0cbfcc93403e6", "320599f5077c2770b13850a5c0b7e4bf", "4d41aff2125c0408d932c59117927b37");
    ("opt-30b/8x12@a2a default", "5ba87777b58aeabc8c44a2650dceae69", "ce54af738f871f6954ec7c52ea5bb9c9", "a20b7381ba89fd1347089a4943416b2f", "3d1db8da0b73dda372a3b2d8cb0de661", "1bd3869c676e4fa199d1e8f86bafa743");
    ("opt-30b/8x12@a2a 1e-6", "5c895829b4f7f16835d9fd024c9c3f2f", "ce54af738f871f6954ec7c52ea5bb9c9", "a20b7381ba89fd1347089a4943416b2f", "6c1a8f298ce51585a6ee2a0b6aa2ea61", "1bd3869c676e4fa199d1e8f86bafa743");
    ("llama2-70b/8x20@a2a default", "60709f39f55c675c19d6bc33c945bb30", "c8a8e20bc7cf8b4afa44b3f94fd0e92c", "09729055bbdd85969526368338625b5c", "34ce51fcad3a9f8ff06042ae1b5227e6", "3a55b8ed55d7f64ea520e86afb287928");
    ("llama2-70b/8x20@a2a 1e-6", "a98a8b5dd0ecac552820a654fedf563d", "c8a8e20bc7cf8b4afa44b3f94fd0e92c", "09729055bbdd85969526368338625b5c", "869f66f88ff0b9edb21723250e54978e", "3a55b8ed55d7f64ea520e86afb287928");
    ("dit-xl/8x7@a2a default", "f223a47a05e0cfb02567f5ff6dc950c1", "79fe99929f982611daa9d78a85f46ce8", "efaee7bd2cb7894d7001a2f21b2b201a", "9729f67d0fda9b0b9d9a85d95db7bf98", "fbda62a293fbc98c79a364b8a2cb8e9c");
    ("dit-xl/8x7@a2a 1e-6", "7c5b94754bf413c3ff22374a22495eaf", "79fe99929f982611daa9d78a85f46ce8", "efaee7bd2cb7894d7001a2f21b2b201a", "b2fdbc677426e0832e8e62174b13075a", "fbda62a293fbc98c79a364b8a2cb8e9c");
    ("mixtral-8x7b/8x10@a2a default", "6d0abba07de9817062daa3567a844246", "adbdda1293439711470750f2a12656ea", "bb58452ada38389007c2dd9e0b119a4a", "96543e79153d633e860c104340afbb10", "3b0e7a644e386db431c1b41b7a7ca1e9");
    ("mixtral-8x7b/8x10@a2a 1e-6", "d249c1655e148cd86e1e6c4a07baea06", "adbdda1293439711470750f2a12656ea", "bb58452ada38389007c2dd9e0b119a4a", "bb80bb50b587e7b3a44712565c60a748", "3b0e7a644e386db431c1b41b7a7ca1e9");
    ("llama2-13b/8x10@mesh default", "55a52c9640d50acf221fc1427bd2c86e", "4659e800b29da50878fc702fc68a1494", "1e330ef02b0fce2c31fa3a29af59122e", "4fb7ebf78b1ee57a474b802747691b8a", "d8efe2bd0b6ed83403bc993cda94a837");
    ("llama2-13b/8x10@mesh 1e-6", "2080f2e22fcf7c4929ae7315e21802b3", "4659e800b29da50878fc702fc68a1494", "1e330ef02b0fce2c31fa3a29af59122e", "23ec9505862a66344aa0434ec180202f", "d8efe2bd0b6ed83403bc993cda94a837");
    ("gemma2-27b/8x11@mesh default", "22cc48f6b7ec2a1781802e281bb4ad71", "3b3ec2a7e109d2e77fd3748b89843238", "a60fbe625a4a893bc9158e2c4b068b5c", "53d43afa1b886d495c724d9a2d41298f", "97eec4cf5dde51068d9f5a60d52bbcfe");
    ("gemma2-27b/8x11@mesh 1e-6", "c7a5a4e4f3597a1fbaee9b0f086646be", "3b3ec2a7e109d2e77fd3748b89843238", "a60fbe625a4a893bc9158e2c4b068b5c", "00359b226a7882ca3b4c2ff3f25c8b0d", "97eec4cf5dde51068d9f5a60d52bbcfe");
    ("opt-30b/8x12@mesh default", "4d9f99ae3dcc53e88bf5f543be1a2f2e", "97d7251bba479ca4ebe285f00db266d5", "5ddc8781db1ce9f7b9b86132361e9ec4", "d9ba198fdbe67ca37d29d767a8d0ff98", "80aaa4b107f1c9027ff5b943d018a666");
    ("opt-30b/8x12@mesh 1e-6", "ec08ee657f0082a914c369678ea1ec33", "97d7251bba479ca4ebe285f00db266d5", "5ddc8781db1ce9f7b9b86132361e9ec4", "9b2dc274603aab1e8d4767dbc3b7c694", "80aaa4b107f1c9027ff5b943d018a666");
    ("llama2-70b/8x20@mesh default", "2c8717ea803c77ef057413b90e3f2e4c", "5b86c37f422e58de743e100e34fb8b35", "1053b6e0f73a9fd60bf2813d091d235b", "2bb33381ea8f2941994373d750384288", "810979b782d5e0c93d5d064e56a1fad8");
    ("llama2-70b/8x20@mesh 1e-6", "0d38d7c799b47d0ba4dd15e088657b55", "5b86c37f422e58de743e100e34fb8b35", "1053b6e0f73a9fd60bf2813d091d235b", "dc7d23954d6c692606d09dbc07e4fdbc", "810979b782d5e0c93d5d064e56a1fad8");
    ("dit-xl/8x7@mesh default", "682c90835c02d13dac97871f1a550f5b", "f796b56615cc3875dd0ef34ad85dc538", "696b55966b8ae58d10e9f180f3a7551a", "54d83ce2faf838c6402dd540aaf0f6e8", "f76aed21bf4931b718ebdd20eab5ffe9");
    ("dit-xl/8x7@mesh 1e-6", "e85eed59f27342842e7b18349ffe4ecb", "f796b56615cc3875dd0ef34ad85dc538", "696b55966b8ae58d10e9f180f3a7551a", "ead234fd1d845a3a929a53eda94ea0e9", "f76aed21bf4931b718ebdd20eab5ffe9");
    ("mixtral-8x7b/8x10@mesh default", "4225994c36261370284e1d4afecf422e", "7feb4ebe1c93d091b55e250967604bac", "529b9f3bfe6680af62f85b1125176eac", "922dfd04b0943e1dd7d3a90a7bb74445", "d11c2b14340bdf405ad1d000fd18b840");
    ("mixtral-8x7b/8x10@mesh 1e-6", "8b864120047592d810a04b939737260d", "7feb4ebe1c93d091b55e250967604bac", "529b9f3bfe6680af62f85b1125176eac", "10ee92f6d9f81659e92b467cb80bb26d", "d11c2b14340bdf405ad1d000fd18b840");
  ]

let test_zoo_records_pinned () =
  let module Np = Elk_analyze.Nocprof in
  let module Mp = Elk_analyze.Memprof in
  let lines = String.concat "\n" in
  check_pinned "pinned_records"
    (fun (label, a, b, c, d, e) ->
      Printf.sprintf "(%S, %S, %S, %S, %S, %S)" label a b c d e)
    pinned_records
    (List.concat_map
       (fun (label, env, s) ->
         let r = Elk_sim.Sim.run ~mem:true ~noc:true env.D.ctx s in
         List.map
           (fun (wname, window) ->
             let label = label ^ " " ^ wname in
             let np = Np.analyze ?window s r in
             let mp = Mp.analyze ?window env.D.ctx s r in
             (match (Np.check np, Mp.check mp) with
             | Ok (), Ok () -> ()
             | Error m, _ | _, Error m -> Alcotest.failf "%s: %s" label m);
             ( label,
               md5 (Np.to_json np),
               md5
                 (lines
                    (List.map Elk_util.Table.render (Np.tables np)
                    @ Option.value ~default:[] (Np.heatmap np))),
               md5 (lines (Np.chrome_counter_events np)),
               md5 (Mp.to_json mp),
               md5 (lines (Mp.chrome_counter_events mp)) ))
           [ ("default", None); ("1e-6", Some 1e-6) ])
       (Lazy.force plans))

(* Per plan: every number of a plain [Sim.run] result, each float at
   full precision ([%h]) and compared by value — the totals, breakdown,
   utilizations, volumes and FLOP/s, the HBM request count, every
   [op_trace] field and array, and Perfcore's per-op attributions and
   per-core buckets.  Beside the twelve plans, two models on the
   clustered chip ([Presets.gpu_like_chip]) cover its L2 preload route. *)
let render_result (r : Elk_sim.Sim.result) =
  let module S = Elk_sim.Sim in
  let module Pc = Elk_sim.Perfcore in
  let module T = Elk.Timeline in
  let b = Buffer.create 65536 in
  let f x = Printf.bprintf b "%h " x in
  let fa a =
    Array.iter f a;
    Buffer.add_char b '|'
  in
  List.iter f
    [ r.S.total; r.S.bd.T.preload_only; r.S.bd.T.execute_only; r.S.bd.T.overlapped;
      r.S.bd.T.interconnect; r.S.hbm_util; r.S.noc_util; fst r.S.noc_util_split;
      snd r.S.noc_util_split; r.S.intercore_volume; r.S.inject_volume;
      r.S.hbm_device_volume; r.S.achieved_flops ];
  Printf.bprintf b "%d\n" r.S.hbm_requests;
  Array.iter
    (fun (o : S.op_trace) ->
      List.iter f
        [ o.S.pre_start; o.S.hbm_end; o.S.pre_end; o.S.pre_wait; o.S.exe_start; o.S.dist_end;
          o.S.dist_wait; o.S.compute_end; o.S.exe_end; o.S.ex_wait; o.S.device_bytes;
          o.S.inject_bytes; o.S.dist_bytes; o.S.exchange_bytes ];
      List.iter fa
        [ o.S.core_tile; o.S.core_dist_done; o.S.core_dist_wait; o.S.core_ex_done;
          o.S.core_ex_wait ];
      Buffer.add_char b '\n')
    r.S.per_op;
  Array.iter
    (fun (a : Pc.op_attrib) ->
      List.iter f [ a.Pc.a_hbm; a.Pc.a_interconnect; a.Pc.a_compute; a.Pc.a_port ])
    r.S.perf.Pc.per_op;
  Array.iter
    (fun (c : Pc.buckets) ->
      List.iter f [ c.Pc.compute; c.Pc.exchange; c.Pc.preload_wait; c.Pc.port; c.Pc.idle ])
    r.S.perf.Pc.per_core;
  Buffer.contents b

let clustered_plans =
  lazy
    (let env = D.env ~topology:`Gpu () in
     List.map
       (fun cfg ->
         let g = zoo_graph cfg in
         let c = Elk.Compile.compile env.D.ctx ~pod:env.D.pod g in
         (Graph.name g ^ "@gpu", env, c.Elk.Compile.schedule))
       [ Zoo.llama2_13b; Zoo.dit_xl ])

let pinned_results =
  [
    ("llama2-13b/8x10@a2a", "cbfe4f4bd6c5c857ab46766d9a11cc0e");
    ("gemma2-27b/8x11@a2a", "b7401cdb1e43982f93c6808cd26ddd56");
    ("opt-30b/8x12@a2a", "7c337882f07e821e0c5bed83e03d412b");
    ("llama2-70b/8x20@a2a", "61a7c3d6329bf1fc5f24b253d0e45bb7");
    ("dit-xl/8x7@a2a", "a8d3479656f92660857872f92dff4986");
    ("mixtral-8x7b/8x10@a2a", "91afdeecd1cebd3443509ca0009619d9");
    ("llama2-13b/8x10@mesh", "93ae5bab04a9da448270feb82440d175");
    ("gemma2-27b/8x11@mesh", "22088f240f37481631f8e4577cb314a6");
    ("opt-30b/8x12@mesh", "7ee038178b5b7ce9dc8db019fd544915");
    ("llama2-70b/8x20@mesh", "200b96ce9fef12f77c4c3dc61c8edba6");
    ("dit-xl/8x7@mesh", "24c2964b615ee8dbc358f65b2ccf192d");
    ("mixtral-8x7b/8x10@mesh", "586f0ede636054057f9792824b8dde82");
    ("llama2-13b/8x10@gpu", "e0a46cde79d30ad923e995047e42d36a");
    ("dit-xl/8x7@gpu", "043e162944703209de9e976ff1f0e3b2");
  ]

let test_zoo_results_pinned () =
  check_pinned "pinned_results"
    (fun (label, d) -> Printf.sprintf "(%S, %S)" label d)
    pinned_results
    (List.map
       (fun (label, env, s) -> (label, md5 (render_result (Elk_sim.Sim.run env.D.ctx s))))
       (Lazy.force plans @ Lazy.force clustered_plans))

(* The four plans perfbench's serve-warm rounds serve most:
   llama2-13b/8x10 prefill at batch x prompt 8x192 and 4x128, and decode
   at batch x context 8x192 and 8x256, on the all-to-all pod. *)
let serve_plans =
  lazy
    (let env = D.env () in
     let cfg = Zoo.scale Zoo.llama2_13b ~factor:8 ~layer_factor:10 in
     List.map
       (fun (label, phase) ->
         let c = Elk.Compile.compile env.D.ctx ~pod:env.D.pod (Zoo.build cfg phase) in
         ("llama2-13b/8x10 " ^ label ^ "@a2a", env, c.Elk.Compile.schedule))
       [
         ("prefill 8x192", Zoo.Prefill { batch = 8; seq = 192 });
         ("prefill 4x128", Zoo.Prefill { batch = 4; seq = 128 });
         ("decode 8x192", Zoo.Decode { batch = 8; ctx = 192 });
         ("decode 8x256", Zoo.Decode { batch = 8; ctx = 256 });
       ])

(* Per plan: the verifier's JSON report ([Verify.run] with the plan's
   program), for the twelve plans, the four serve plans and
   [Test_verify.inflated]'s overflowing schedule.  The zoo and serve
   plans carry [mem.overcommit] warnings and the inflated one
   [mem.capacity] errors, so both branches that read the minimal-option
   floor are pinned. *)
let pinned_verify =
  [
    ("llama2-13b/8x10@a2a", "9ac66c550b6a43af53eb4f1f3dea6657");
    ("gemma2-27b/8x11@a2a", "56b85500207b99a64e31e6bdc8c9fed0");
    ("opt-30b/8x12@a2a", "53885d1c6761eae75e9591d854b36f4f");
    ("llama2-70b/8x20@a2a", "dd87cec5ed40523270d091907ba08ab1");
    ("dit-xl/8x7@a2a", "0c25714b384fa9ac0fda5fb20355c548");
    ("mixtral-8x7b/8x10@a2a", "ef5a0c6a878d3c35c317cdafcc4f0ac9");
    ("llama2-13b/8x10@mesh", "fbefaaba6fc6f2896b7233f7b74abba0");
    ("gemma2-27b/8x11@mesh", "9e1d476ae058f89c7b9f75186612c314");
    ("opt-30b/8x12@mesh", "53885d1c6761eae75e9591d854b36f4f");
    ("llama2-70b/8x20@mesh", "dbb939878d0ceca66a7cb56f69758f96");
    ("dit-xl/8x7@mesh", "0c25714b384fa9ac0fda5fb20355c548");
    ("mixtral-8x7b/8x10@mesh", "429f0bfddb86edb1c4e2595a1b396fd8");
    ("llama2-13b/8x10 prefill 8x192@a2a", "740c078ec7108a8a96ba13a34d6f9527");
    ("llama2-13b/8x10 prefill 4x128@a2a", "8713cbe321d4cc6cad236b920c343752");
    ("llama2-13b/8x10 decode 8x192@a2a", "66064b4b53db0490ef2b2e58a435a06b");
    ("llama2-13b/8x10 decode 8x256@a2a", "0c6b993e97021daf5997cf7531cec5fc");
    ("tiny llama inflated", "d83e1c8dde24fe1b4eb82186ff659ed6");
  ]

let test_zoo_verify_pinned () =
  let module V = Elk_verify.Verify in
  let run ctx s = V.run ~program:(Elk.Program.of_schedule s) ctx s in
  let has rule (r : V.report) = List.exists (fun d -> d.Elk_verify.Diag.rule = rule) r.V.diags in
  let reports =
    List.map (fun (label, env, s) -> (label, run env.D.ctx s))
      (Lazy.force plans @ Lazy.force serve_plans)
    @
    let ctx = Lazy.force Tu.default_ctx in
    [ ("tiny llama inflated", run ctx (Test_verify.inflated ctx (Lazy.force Tu.tiny_schedule))) ]
  in
  List.iter
    (fun rule ->
      if not (List.exists (fun (_, r) -> has rule r) reports) then
        Alcotest.failf "no pinned report carries %s" rule)
    [ "mem.capacity"; "mem.overcommit" ];
  check_pinned "pinned_verify"
    (fun (label, d) -> Printf.sprintf "(%S, %S)" label d)
    pinned_verify
    (List.map (fun (label, r) -> (label, md5 (V.report_to_json r))) reports)

(* Every survivor of each plan's order search, rescheduled on the
   plan's chip graph: its [Timeline.lower_bound] is never above its
   [Timeline.evaluate] total, compared as floats with no tolerance, and
   equals it when the survivor's timeline has no interconnect stall. *)
let test_zoo_lower_bounds () =
  List.iter
    (fun (label, env, s) ->
      let ctx = env.D.ctx in
      let cands = Elk.Compile.candidates ctx s.Elk.Schedule.graph in
      List.iteri
        (fun i (c, bound) ->
          let tl = Elk.Timeline.evaluate ctx c in
          let total = tl.Elk.Timeline.total in
          if not (bound <= total) then
            Alcotest.failf "%s survivor %d: bound %h above total %h" label i bound total;
          if tl.Elk.Timeline.bd.Elk.Timeline.interconnect = 0. && bound <> total then
            Alcotest.failf "%s survivor %d: stall-free total %h but bound %h" label i total
              bound)
        cands.Elk.Compile.survivors)
    (Lazy.force plans)

(* The search behind each plan, not only its winner.  Per plan, over
   its chip graph's operators in a new partition context: every point
   of [Partition.exec_frontier] (its x and y, the plan's factors, tile,
   [cores_used], [max_share_group] and every float, floats by [%h]).
   And every survivor of [Compile.candidates] on that chip graph, in
   order: its [Planio.export] and lower bound, with the number of
   orders tried. *)
let pinned_frontiers =
  [
    ("llama2-13b/8x10@a2a", "a4d79ebd6a4e3ce9050bab902116564e");
    ("gemma2-27b/8x11@a2a", "62655d318a692e64726123ae6598c48c");
    ("opt-30b/8x12@a2a", "f4f11957f9799928c42abb956b392b1c");
    ("llama2-70b/8x20@a2a", "2811b92685dbec1f5965ef29c5fb8ed5");
    ("dit-xl/8x7@a2a", "e03e8e4d82da9390f55acd93b178b5c4");
    ("mixtral-8x7b/8x10@a2a", "9b07603caf3cb7ddfce1873bad63d6cf");
    ("llama2-13b/8x10@mesh", "5cd0ad70b3555e4ecc393923d848fa7a");
    ("gemma2-27b/8x11@mesh", "862feb90443f55016473c8b60d51a965");
    ("opt-30b/8x12@mesh", "4178e8061a8db2c6e33feda672de0735");
    ("llama2-70b/8x20@mesh", "422b2c1d7c9c9b2ff7218c409df20003");
    ("dit-xl/8x7@mesh", "012bdfd905afcb9bb62d71267e9254ad");
    ("mixtral-8x7b/8x10@mesh", "6ff62c3f25712550eb342d3e83df60e3");
  ]

let render_frontier (pts : Elk_partition.Partition.plan Elk_util.Pareto.point list) =
  let module P = Elk_partition.Partition in
  let b = Buffer.create 4096 in
  let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  List.iter
    (fun (pt : P.plan Elk_util.Pareto.point) ->
      let p = pt.Elk_util.Pareto.payload in
      Printf.bprintf b "%h %h <%s> %s %d %d %h %h %h %h %h\n" pt.Elk_util.Pareto.x
        pt.Elk_util.Pareto.y (ints p.P.factors) (ints p.P.tile) p.P.cores_used
        p.P.max_share_group p.P.exec_space p.P.exec_time p.P.compute_time
        p.P.exchange_bytes_per_core p.P.hbm_needed_per_core)
    pts;
  Buffer.contents b

let test_zoo_frontiers_pinned () =
  check_pinned "pinned_frontiers"
    (fun (label, d) -> Printf.sprintf "(%S, %S)" label d)
    pinned_frontiers
    (List.map
       (fun (label, env, s) ->
         let ctx = Elk_partition.Partition.make_ctx (Elk_partition.Partition.ctx_cost env.D.ctx) in
         ( label,
           md5
             (String.concat "--\n"
                (Array.to_list
                   (Array.map
                      (fun (node : Graph.node) ->
                        render_frontier (Elk_partition.Partition.exec_frontier ctx node.Graph.op))
                      (Graph.nodes s.Elk.Schedule.graph)))) ))
       (Lazy.force plans))

let pinned_survivors =
  [
    ("llama2-13b/8x10@a2a", 24, "f1bfa223e30ec71b04afd8bfa04f1b32");
    ("gemma2-27b/8x11@a2a", 24, "0062963d2b636bd055a805a17e662692");
    ("opt-30b/8x12@a2a", 6, "ad59f25b327098af76194df7911fa176");
    ("llama2-70b/8x20@a2a", 23, "59ea1d93cea705190417e8c55791e71e");
    ("dit-xl/8x7@a2a", 24, "a1cda11c20c85cf530bc8694006ab47e");
    ("mixtral-8x7b/8x10@a2a", 1, "2e8663420bfde9eeb15f96dc28a8126c");
    ("llama2-13b/8x10@mesh", 24, "495601ba01120d9758fbda2fe7f52a33");
    ("gemma2-27b/8x11@mesh", 24, "3503bb04d7ee56f089ad79cbeb70e4f9");
    ("opt-30b/8x12@mesh", 6, "ff669d435a9c7266493d67f3dd85615c");
    ("llama2-70b/8x20@mesh", 23, "fe610048bfc62ae6fefdc7d96dfb29d0");
    ("dit-xl/8x7@mesh", 24, "c98ad14948881b05c58d9eddb7b913ed");
    ("mixtral-8x7b/8x10@mesh", 1, "46a4238b454f50dc656baf2b57920aa9");
  ]

let test_zoo_survivors_pinned () =
  check_pinned "pinned_survivors"
    (fun (label, tried, d) -> Printf.sprintf "(%S, %d, %S)" label tried d)
    pinned_survivors
    (List.map
       (fun (label, env, s) ->
         let c = Elk.Compile.candidates env.D.ctx s.Elk.Schedule.graph in
         ( label,
           c.Elk.Compile.tried,
           md5
             (String.concat ""
                (List.map
                   (fun (s, bound) -> Printf.sprintf "%s%h\n" (Elk.Planio.export s) bound)
                   c.Elk.Compile.survivors)) ))
       (Lazy.force plans))

(* The deadlock lint checks the routes the simulator books: on each of
   the twelve plans, per (op, phase), the links on
   [Deadlock.transfers_of_schedule]'s routes, over a Noc of its own as
   the verifier builds one, are the links of the distribute and
   exchange bookings a recorded [Sim.run] makes, as multisets. *)
let test_zoo_deadlock_sees_sim_rings () =
  let module Dl = Elk_verify.Deadlock in
  let module Nt = Elk_sim.Noctrace in
  let module N = Elk_noc.Noc in
  (* The (op, phase) groups [add] fills, in order, each group's links
     sorted. *)
  let groups add =
    let tbl = Hashtbl.create 64 in
    add (fun key links ->
        Hashtbl.replace tbl key (links @ Option.value ~default:[] (Hashtbl.find_opt tbl key)));
    List.sort compare
      (Hashtbl.fold (fun key links acc -> (key, List.sort N.compare_link links) :: acc) tbl [])
  in
  List.iter
    (fun (label, env, s) ->
      let lint =
        groups (fun add ->
            List.iter
              (fun t -> add (t.Dl.t_op, Dl.phase_name t.Dl.t_phase) t.Dl.t_route)
              (Dl.transfers_of_schedule
                 (N.create (Elk_partition.Partition.ctx_chip env.D.ctx))
                 s))
      in
      let sim =
        groups (fun add ->
            let r = Elk_sim.Sim.run ~noc:true env.D.ctx s in
            Array.iter
              (fun b ->
                if b.Nt.b_cls <> Nt.Preload then
                  add (b.Nt.b_op, Nt.cls_name b.Nt.b_cls) [ b.Nt.b_link ])
              (Nt.bookings (Option.get r.Elk_sim.Sim.noc)))
      in
      if lint = [] then Alcotest.failf "%s: no ring transfer" label;
      if List.map fst lint <> List.map fst sim then
        Alcotest.failf "%s: the lint and the simulator move different (op, phase) groups" label;
      List.iter2
        (fun ((op, phase), l) (_, b) ->
          if l <> b then
            Alcotest.failf "%s op %d %s: the lint's %d links differ from the simulator's %d"
              label op phase (List.length l) (List.length b))
        lint sim)
    (Lazy.force plans)

let suite =
  [
    Alcotest.test_case "12 zoo plans match the pinned digests" `Quick test_zoo_plans_pinned;
    Alcotest.test_case "12 zoo plans' simulator views match the pinned digests" `Quick
      test_zoo_views_pinned;
    Alcotest.test_case "12 zoo plans' interconnect and memory views match the pinned digests"
      `Quick test_zoo_records_pinned;
    Alcotest.test_case "12 zoo plans' survivors: lower bound never above the total" `Quick
      test_zoo_lower_bounds;
    Alcotest.test_case "12 zoo and 2 clustered plans' Sim.run results match the pinned digests"
      `Quick test_zoo_results_pinned;
    Alcotest.test_case "16 plans and an overflow: verifier reports match the pinned digests"
      `Quick test_zoo_verify_pinned;
    Alcotest.test_case
      "12 zoo plans: the deadlock lint's transfers are the simulator's ring bookings" `Quick
      test_zoo_deadlock_sees_sim_rings;
    Alcotest.test_case "12 zoo plans' exec frontiers match the pinned digests" `Quick
      test_zoo_frontiers_pinned;
    Alcotest.test_case "12 zoo plans' order-search survivors match the pinned digests" `Quick
      test_zoo_survivors_pinned;
  ]
