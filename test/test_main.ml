let () =
  Alcotest.run "pop"
    [
      ("runtime", Test_runtime.suite);
      ("softsignal", Test_softsignal.suite);
      ("heap", Test_heap.suite);
      ("core-util", Test_core_util.suite);
      ("reclaimer", Test_reclaimer.suite);
      ("smr-unit", Test_smr_unit.suite);
      ("sanitizer", Test_sanitizer.suite);
      ("lint", Test_lint.suite);
      ("data-structures", Test_ds.suite);
      ("queue", Test_queue.suite);
      ("stress", Test_stress.suite);
      ("robustness", Test_robustness.suite);
      ("churn", Test_churn.suite);
      ("harness", Test_harness.suite);
      ("json", Test_json.suite);
      ("contracts", Test_contracts.suite);
    ]
