let () =
  Alcotest.run "recstep"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("parallel", Test_parallel.suite);
      ("storage", Test_storage.suite);
      ("relation", Test_relation.suite);
      ("exec", Test_exec.suite);
      ("kernel", Test_kernel.suite);
      ("signature", Test_signature.suite);
      ("core", Test_core.suite);
      ("explain", Test_explain.suite);
      ("ivm", Test_ivm.suite);
      ("bitmatrix", Test_bitmatrix.suite);
      ("bdd", Test_bdd.suite);
      ("engines", Test_engines.suite);
      ("service", Test_service.suite);
      ("load", Test_load.suite);
      ("datagen", Test_datagen.suite);
      ("integration", Test_integration.suite);
      ("invariants", Test_invariants.suite);
      ("fuzz", Test_fuzz.suite);
      ("chaos", Test_chaos.suite);
      ("benchkit", Test_benchkit.suite);
      ("validate", Test_validate.suite);
    ]
