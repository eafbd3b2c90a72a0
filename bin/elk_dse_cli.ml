(* Design-space exploration CLI: the sweeps of paper §6.4 as one command.

   Example:
     elk_dse_cli --sweep hbm -m llama2-13b
     elk_dse_cli --sweep cores --topology mesh *)

open Cmdliner
module B = Elk_baselines.Baselines
module D = Elk_dse.Dse

let model_conv =
  let parse s =
    match Elk_model.Zoo.by_name s with
    | Some cfg -> Ok cfg
    | None -> Error (`Msg (Printf.sprintf "unknown model %S" s))
  in
  Arg.conv (parse, fun fmt c -> Format.pp_print_string fmt c.Elk_model.Zoo.cfg_name)

let model_t =
  Arg.(value & opt model_conv Elk_model.Zoo.llama2_13b & info [ "m"; "model" ] ~doc:"Model.")

let sweep_t =
  Arg.(
    required
    & opt (some (enum [ ("hbm", `Hbm); ("noc", `Noc); ("cores", `Cores); ("flops", `Flops) ])) None
    & info [ "sweep" ] ~doc:"Swept parameter: hbm, noc, cores or flops.")

let topo_t =
  Arg.(
    value
    & opt (enum [ ("a2a", `All_to_all); ("mesh", `Mesh); ("gpu", `Gpu) ]) `All_to_all
    & info [ "topology" ] ~doc:"Interconnect topology: a2a, mesh or gpu (clustered).")

(* A batch size: a positive integer, else cmdliner's usage error (exit 124). *)
let positive_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let batch_t = Arg.(value & opt positive_conv 32 & info [ "b"; "batch" ] ~doc:"Batch size.")

let jobs_t =
  Arg.(
    value
    & opt (some positive_conv) None
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker domains for design-point evaluation and order search \
           (default: $(b,ELK_JOBS), else the recommended domain count).")

let run cfg sweep topology batch jobs =
  Option.iter Elk_util.Pool.set_jobs jobs;
  let scaled = Elk_model.Zoo.scale cfg ~factor:8 ~layer_factor:10 in
  let g = Elk_model.Zoo.build scaled (Elk_model.Zoo.Decode { batch; ctx = 256 }) in
  let base_hbm =
    (D.env ~topology ()).D.pod.Elk_arch.Arch.chip.Elk_arch.Arch.hbm_bandwidth
  in
  let points =
    match sweep with
    | `Hbm ->
        List.map
          (fun m -> (Printf.sprintf "HBM %.2fx" m, D.env ~topology ~hbm_bw_per_chip:(m *. base_hbm) ()))
          [ 0.25; 0.5; 1.; 2.; 4. ]
    | `Noc ->
        List.map
          (fun m -> (Printf.sprintf "NoC %.2fx" m, D.env ~topology ~link_bw:(m *. 5.5e9) ()))
          [ 0.5; 1.; 2.; 4. ]
    | `Cores ->
        List.map
          (fun c -> (Printf.sprintf "%d cores" c, D.env ~topology ~cores:c ()))
          [ 16; 32; 64; 128 ]
    | `Flops ->
        List.map
          (fun m -> (Printf.sprintf "FLOPS %.2fx" m, D.env ~topology ~flops_scale:m ()))
          [ 0.5; 1.; 2.; 4. ]
  in
  let t =
    Elk_util.Table.create
      ~title:(Printf.sprintf "sweep on %s" (Elk_model.Graph.name g))
      ~columns:("point" :: List.map B.name B.all)
  in
  List.iter
    (fun (label, env) ->
      let cells =
        List.map
          (fun d ->
            let e = D.evaluate env g d in
            Format.asprintf "%a" Elk_util.Units.pp_time e.D.latency)
          B.all
      in
      Elk_util.Table.add_row t (label :: cells))
    points;
  Elk_util.Table.print t

let () =
  let doc = "Design-space exploration sweeps for ICCA chips (paper Figs 19-24)." in
  exit
    (Cmd.eval
       (Cmd.v (Cmd.info "elk_dse_cli" ~doc)
          Term.(const run $ model_t $ sweep_t $ topo_t $ batch_t $ jobs_t)))
