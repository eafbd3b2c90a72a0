(* Entry point aggregating every suite; `dune runtest` runs this. *)

let () =
  Alcotest.run "elk"
    [
      ("util", Test_util.suite);
      ("pool", Test_pool.suite);
      ("obs", Test_obs.suite);
      ("tensor", Test_tensor.suite);
      ("model", Test_model.suite);
      ("arch", Test_arch.suite);
      ("hbm", Test_hbm.suite);
      ("noc", Test_noc.suite);
      ("cost", Test_cost.suite);
      ("partition", Test_partition.suite);
      ("core", Test_core.suite);
      ("opsplit", Test_opsplit.suite);
      ("sim", Test_sim.suite);
      ("critpath", Test_critpath.suite);
      ("analyze", Test_analyze.suite);
      ("baselines", Test_baselines.suite);
      ("gtext", Test_gtext.suite);
      ("extensions", Test_extensions.suite);
      ("semantics", Test_semantics.suite);
      ("properties", Test_properties.suite);
      ("edges", Test_edges.suite);
      ("fusion", Test_fusion.suite);
      ("verify", Test_verify.suite);
      ("dse", Test_dse.suite);
      ("parallel", Test_parallel.suite);
      ("compilecache", Test_compilecache.suite);
      ("serve", Test_serve.suite);
      ("workload", Test_workload.suite);
      ("timeseries", Test_timeseries.suite);
      ("memprof", Test_memprof.suite);
      ("nocprof", Test_nocprof.suite);
      ("frontend", Test_frontend.suite);
      ("zooplans", Test_zooplans.suite);
      ("integration", Test_integration.suite);
    ]
