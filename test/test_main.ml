let () =
  Alcotest.run "chaoschain"
    [ ("crypto", Test_crypto.suite);
      ("der", Test_der.suite);
      ("derfuzz", Test_derfuzz.suite);
      ("x509", Test_x509.suite);
      ("pki", Test_pki.suite);
      ("core-server", Test_core_server.suite);
      ("core-client", Test_core_client.suite);
      ("deployment", Test_deployment.suite);
      ("tlssim", Test_tlssim.suite);
      ("report", Test_report.suite);
      ("decoders", Test_decoders.suite);
      ("measurement", Test_measurement.suite);
      ("pipeline", Test_pipeline.suite);
      ("difftest", Test_difftest.suite);
      ("extensions", Test_extensions_modules.suite);
      ("store", Test_store.suite);
      ("service", Test_service.suite);
      ("net", Test_net.suite);
      ("edge-cases", Test_edge_cases.suite) ]
