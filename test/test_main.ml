let () =
  Alcotest.run "time-protection"
    [
      ("util", Test_util.suite);
      ("hw", Test_hw.suite);
      ("alloc", Test_alloc.suite);
      ("replay", Test_replay.suite);
      ("channel", Test_channel.suite);
      ("kernel", Test_kernel.suite);
      ("extensions", Test_extensions.suite);
      ("invariants", Test_invariants.suite);
      ("fault", Test_fault.suite);
      ("mcs", Test_mcs.suite);
      ("cspace", Test_cspace.suite);
      ("attacks", Test_attacks.suite);
      ("workloads", Test_workloads.suite);
      ("core", Test_core.suite);
      ("obs", Test_obs.suite);
      ("par", Test_par.suite);
      ("store", Test_store.suite);
      ("serve", Test_serve.suite);
      ("analysis", Test_analysis.suite);
      ("certify", Test_certify.suite);
    ]
