let () =
  Alcotest.run "tpp"
    [
      ("util", Test_util.suite);
      ("packet", Test_packet.suite);
      ("isa", Test_isa.suite);
      ("frames", Test_frames.suite);
      ("asm", Test_asm.suite);
      ("tables", Test_tables.suite);
      ("asic", Test_asic.suite);
      ("tcpu", Test_tcpu.suite);
      ("compile", Test_compile.suite);
      ("switch", Test_switch.suite);
      ("sim", Test_sim.suite);
      ("transmit", Test_transmit.suite);
      ("parsim", Test_parsim.suite);
      ("fault", Test_fault.suite);
      ("scenario", Test_scenario.suite);
      ("endhost", Test_endhost.suite);
      ("rcp", Test_rcp.suite);
      ("ndb", Test_ndb.suite);
      ("integration", Test_integration.suite);
      ("extensions", Test_extensions.suite);
      ("fuzz", Test_fuzz.suite);
      ("dataplane-ext", Test_dataplane_ext.suite);
      ("control", Test_control.suite);
      ("golden", Test_golden.suite);
      ("tcp", Test_tcp.suite);
      ("transport", Test_transport.suite);
      ("telemetry", Test_telemetry.suite);
      ("scale", Test_scale.suite);
    ]
