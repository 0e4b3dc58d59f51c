(* Test runner: every module contributes suites. *)

let () =
  Alcotest.run "atomrep"
    (Test_value.suites @ Test_history.suites @ Test_spec.suites
   @ Test_atomicity.suites @ Test_judge.suites @ Test_relation.suites @ Test_static_dep.suites @ Test_reachable.suites
   @ Test_dynamic_dep.suites @ Test_hybrid_dep.suites @ Test_paper.suites
   @ Test_quorum.suites @ Test_clock.suites @ Test_stats.suites
   @ Test_sim.suites @ Test_cc.suites @ Test_replica.suites @ Test_view.suites
   @ Test_props.suites @ Test_extensions.suites @ Test_gifford.suites @ Test_golden.suites @ Test_integration.suites
   @ Test_chaos.suites @ Test_reconfig.suites @ Test_obs.suites @ Test_store.suites @ Test_termination.suites
   @ Test_takeover.suites @ Test_explore.suites @ Test_perfobs.suites
   @ Test_overload.suites @ Test_gray.suites)
