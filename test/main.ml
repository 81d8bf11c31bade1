let () =
  Alcotest.run "fst"
    [
      ("logic", Test_logic.suite);
      ("netlist", Test_netlist.suite);
      ("opt", Test_opt.suite);
      ("view", Test_view.suite);
      ("timing", Test_timing.suite);
      ("sim", Test_sim.suite);
      ("exec", Test_exec.suite);
      ("chaos", Test_chaos.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("obs", Test_obs.suite);
      ("analyze", Test_analyze.suite);
      ("fault", Test_fault.suite);
      ("fsim", Test_fsim.suite);
      ("scoap", Test_scoap.suite);
      ("podem", Test_podem.suite);
      ("unroll", Test_unroll.suite);
      ("seq", Test_seq.suite);
      ("rtpg", Test_rtpg.suite);
      ("tpi", Test_tpi.suite);
      ("lint", Test_lint.suite);
      ("classify", Test_classify.suite);
      ("sequences", Test_sequences.suite);
      ("group", Test_group.suite);
      ("config", Test_config.suite);
      ("flow", Test_flow.suite);
      ("scan_atpg", Test_scan_atpg.suite);
      ("gen", Test_gen.suite);
      ("report", Test_report.suite);
      ("compact", Test_compact.suite);
      ("diagnose", Test_diagnose.suite);
      ("sca", Test_sca.suite);
      ("serve", Test_serve.suite);
      ("cli", Test_cli.suite);
    ]
