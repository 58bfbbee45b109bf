// Golden-fixture selftest for psml-sync, the lockset & blocking-discipline
// analyzer. Mirrors ct_selftest.cpp (shared harness in selftest_util.hpp):
// fixtures under tests/lint_fixtures/sync/ mark every line that MUST be
// reported with `// EXPECT: <rule-id>` next to clean twins, and the reported
// (file, line, rule) set must equal the EXPECT set exactly. Also validates
// the SARIF log CI uploads, allowlist suppression, and the combined
// four-tool allowlist budget (psml-lint + psml-taint + psml-ct + psml-sync
// share one <=10-entry budget; see docs/ANALYSIS.md §9).
//
// Also runs the tool over the project's own sources, asserting that its
// call summaries converge and that the lock graph stays finding-free.
//
// Invocation (wired up in tests/CMakeLists.txt):
//   sync_selftest <psml-sync> <fixtures-dir> <lint-allowlist>
//                 <taint-allowlist> <ct-allowlist> <sync-allowlist> <src-dir>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "selftest_util.hpp"

namespace fs = std::filesystem;
using namespace psml::selftest;

namespace {

std::string g_sync_bin;
fs::path g_fixtures;
fs::path g_allowlists[4];  // psml-lint, psml-taint, psml-ct, psml-sync
fs::path g_src;

}  // namespace

TEST(SyncSelftest, SyncFixturesExactMatch) {
  const fs::path dir = g_fixtures / "sync";
  const ToolRun r = run_tool(g_sync_bin + " " + dir.string());
  expect_same_findings(parse_findings(r.output), expected_findings(dir));
  EXPECT_NE(r.exit_code, 0) << "seeded violations must fail the run";
}

TEST(SyncSelftest, EveryRuleClassIsSeeded) {
  // Guards the fixture tree itself: each of the five finding classes must
  // keep at least one seeded defect, or a regression in that rule would pass
  // the exact-match test vacuously.
  const auto want = expected_findings(g_fixtures / "sync");
  for (const char* rule :
       {"unguarded-shared-write", "lock-order-inversion",
        "blocking-under-lock", "missing-deadline-recv",
        "atomic-mixed-access"}) {
    bool seeded = false;
    for (const auto& [file, line, r] : want) seeded |= (r == rule);
    EXPECT_TRUE(seeded) << "no fixture seeds [" << rule << "]";
  }
}

TEST(SyncSelftest, SyncSarifValid) {
  const fs::path dir = g_fixtures / "sync";
  const fs::path sarif = temp_file("psml_selftest_sync.sarif");
  run_tool(g_sync_bin + " --sarif " + sarif.string() + " " + dir.string());
  EXPECT_EQ(check_sarif(sarif, "psml-sync"), expected_findings(dir).size());
  fs::remove(sarif);
}

TEST(SyncSelftest, DotGraphHasWitnessEdges) {
  // --dot must emit a digraph whose edges carry witness file:line labels;
  // the seeded inversion guarantees at least the a_<->b_ pair is present.
  const fs::path dir = g_fixtures / "sync";
  const fs::path dot = temp_file("psml_selftest_sync.dot");
  run_tool(g_sync_bin + " --dot " + dot.string() + " " + dir.string());
  const std::string graph = read_file(dot);
  EXPECT_NE(graph.find("digraph"), std::string::npos);
  EXPECT_NE(graph.find("\"lock_order_ab:a_\" -> \"lock_order_ab:b_\""),
            std::string::npos)
      << graph;
  EXPECT_NE(graph.find("\"lock_order_ab:b_\" -> \"lock_order_ab:a_\""),
            std::string::npos)
      << graph;
  EXPECT_NE(graph.find("lock_order_ab.cpp:11"), std::string::npos) << graph;
  fs::remove(dot);
}

TEST(SyncSelftest, LocalLambdaComposesNoSummary) {
  // local_lambda.cpp calls a lambda named like a locking member with a lock
  // held. The lambda's body takes no lock, so the graph keeps the member's
  // own entries_mutex_ -> gate_ edge and gains no reverse edge (which would
  // also close a lock-order cycle in the exact-match test).
  const fs::path dot = temp_file("psml_selftest_sync_local.dot");
  const ToolRun r =
      run_tool(g_sync_bin + " --dot " + dot.string() + " " +
               (g_fixtures / "sync" / "local_lambda.cpp").string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::string graph = read_file(dot);
  EXPECT_NE(graph.find("\"local_lambda:entries_mutex_\" -> "
                       "\"local_lambda:gate_\""),
            std::string::npos)
      << graph;
  EXPECT_EQ(graph.find("\"local_lambda:gate_\" -> "
                       "\"local_lambda:entries_mutex_\""),
            std::string::npos)
      << graph;
  fs::remove(dot);
}

TEST(SyncSelftest, AllowlistSuppressesAndMarksSarif) {
  const fs::path dir = g_fixtures / "sync";
  const fs::path allow = temp_file("psml_selftest_sync_allow.txt");
  {
    std::ofstream os(allow);
    // lock_order_ab.cpp carries exactly one lock-order-inversion finding.
    os << "lock-order-inversion lock_order_ab.cpp fixture: suppression\n";
  }
  const fs::path sarif = temp_file("psml_selftest_sync_suppressed.sarif");
  const ToolRun r = run_tool(g_sync_bin + " --allowlist " + allow.string() +
                             " --sarif " + sarif.string() + " " +
                             dir.string());

  std::set<Finding> want = expected_findings(dir);
  want.erase({"lock_order_ab.cpp", 11, "lock-order-inversion"});
  expect_same_findings(parse_findings(r.output), want);
  EXPECT_NE(r.output.find("1 allowlisted"), std::string::npos) << r.output;

  // SARIF still carries the suppressed result, flagged as suppressed.
  EXPECT_EQ(check_sarif(sarif, "psml-sync"), want.size() + 1);
  EXPECT_NE(read_file(sarif).find("\"suppressions\""), std::string::npos);
  fs::remove(allow);
  fs::remove(sarif);
}

TEST(SyncSelftest, CombinedAllowlistBudgetWithinTen) {
  // The four analyzers budget suppressions jointly: 10 entries total across
  // the repo, enforced here because each tool alone only checks its own file.
  std::size_t total = 0;
  for (const auto& p : g_allowlists) {
    ASSERT_TRUE(fs::exists(p)) << p << " missing";
    const std::size_t n = count_allowlist_entries(p);
    std::printf("  %s: %zu entr%s\n", p.string().c_str(), n,
                n == 1 ? "y" : "ies");
    total += n;
  }
  EXPECT_LE(total, 10u)
      << "combined psml-lint/psml-taint/psml-ct/psml-sync allowlist budget "
         "exceeded; fix or annotate the code instead of suppressing";
}

TEST(SyncSelftest, SourceSummariesConvergeAndGraphIsAcyclic) {
  // The lock graph is only as complete as the call summaries it is built
  // from: the run must report convergence (a run that hits the round bound
  // exits 2 with no graph), and with the project allowlist it must find no
  // lock-order cycle or other violation.
  const fs::path dot = temp_file("psml_selftest_sync_src.dot");
  const ToolRun r = run_tool(g_sync_bin + " --allowlist " +
                             g_allowlists[3].string() + " --dot " +
                             dot.string() + " " + g_src.string());
  EXPECT_NE(r.output.find("call summaries converged in"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(read_file(dot).find("digraph"), std::string::npos);
  fs::remove(dot);
}

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc < 8) {
    std::fprintf(stderr,
                 "usage: sync_selftest SYNC_BIN FIXTURE_DIR LINT_ALLOWLIST "
                 "TAINT_ALLOWLIST CT_ALLOWLIST SYNC_ALLOWLIST SRC_DIR\n");
    return 2;
  }
  g_sync_bin = argv[1];
  g_fixtures = argv[2];
  g_allowlists[0] = argv[3];
  g_allowlists[1] = argv[4];
  g_allowlists[2] = argv[5];
  g_allowlists[3] = argv[6];
  g_src = argv[7];
  return RUN_ALL_TESTS();
}
