(* Aggregated alcotest entry point; suites live one per library. *)

let () =
  Alcotest.run "iss_rtl_correlation"
    [ Test_bitops.suite;
      Test_stats.suite;
      Test_obs.suite;
      Test_sparc.suite;
      Test_roundtrip.suite;
      Test_iss.suite;
      Test_rtl.suite;
      Test_analysis.suite;
      Test_leon3.suite;
      Test_gatelevel.suite;
      Test_differential.suite;
      Test_fault.suite;
      Test_journal.suite;
      Test_iss_campaign.suite;
      Test_batch.suite;
      Test_tail.suite;
      Test_settle.suite;
      Test_workloads.suite;
      Test_diversity.suite;
      Test_report.suite;
      Test_correlation.suite ]
