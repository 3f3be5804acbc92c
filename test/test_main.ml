let () =
  Alcotest.run "afex"
    [
      ("stats", Test_stats.suite);
      ("faultspace", Test_faultspace.suite);
      ("fsdl", Test_fsdl.suite);
      ("simtarget", Test_simtarget.suite);
      ("injector", Test_injector.suite);
      ("quality", Test_quality.suite);
      ("prop_quality", Test_prop_quality.suite);
      ("core", Test_core.suite);
      ("prop_core", Test_prop_core.suite);
      ("rarity", Test_rarity.suite);
      ("cluster", Test_cluster.suite);
      ("transport", Test_transport.suite);
      ("async", Test_async.suite);
      ("runtime", Test_runtime.suite);
      ("pool", Test_pool.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("report", Test_report.suite);
      ("extensions", Test_extensions.suite);
      ("replsim", Test_replsim.suite);
      ("misc", Test_misc.suite);
      ("integration", Test_integration.suite);
    ]
