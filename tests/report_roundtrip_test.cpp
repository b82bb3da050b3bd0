// Round-trip tests for the worker envelope (run_output.h): every finding
// category, escape-heavy strings, and the empty report must survive
// render -> envelope -> parse with the relayed stdout byte-identical to
// the in-process rendering, and the embedded stats document must read
// back to the same rendering. This is the contract both `--isolate` and
// the result cache rest on: a worker's run and a cached run are replayed
// from exactly this envelope, so anything it loses they lose.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/report.h"
#include "safeflow/driver.h"
#include "safeflow/run_output.h"
#include "support/json.h"
#include "support/source_manager.h"

namespace {

using namespace safeflow;

/// The run the in-process path would print for `report`, in text or
/// JSON form.
RunOutput runFor(const analysis::SafeFlowReport& report,
                 const support::SourceManager& sm, bool json) {
  RunOutput run;
  run.stats.files = 1;
  run.stats.counters = {{"taint.body_analyses", 3}};
  run.stats.phase_seconds = {{"taint", 0.25}};
  run.exit_code = exitCodeFor(report.dataErrorCount(),
                              !report.failed_files.empty(),
                              !report.degraded_phases.empty());
  run.stdout_text = json ? report.renderJson(sm, run.stats.renderJson())
                         : report.render(sm);
  run.stderr_text = "unit.c:1:1: note: \"quoted\"\tdiagnostic\n";
  return run;
}

/// Sends `run` through the worker envelope and reads it back.
RunOutput roundTrip(const RunOutput& run) {
  support::json::Value doc;
  std::string err;
  EXPECT_TRUE(support::json::parse(renderEnvelope(run), &doc, &err)) << err;
  RunOutput back;
  EXPECT_TRUE(readEnvelope(doc, &back));
  return back;
}

void expectSameRun(const RunOutput& a, const RunOutput& b) {
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.stdout_text, b.stdout_text);
  EXPECT_EQ(a.stderr_text, b.stderr_text);
  EXPECT_EQ(a.stats.renderJson(), b.stats.renderJson());
  EXPECT_EQ(a.reads, b.reads);
}

analysis::SafeFlowReport fullReport() {
  analysis::SafeFlowReport report;

  analysis::UnsafeAccessWarning w1;
  w1.function = "control_loop";
  w1.region_name = "telemetry_buf";
  w1.offset_known = true;
  w1.offset_lo = 4;
  w1.offset_hi = 12;
  analysis::UnsafeAccessWarning w2;
  w2.function = "isr_handler";
  w2.region_name = "shared_flags";  // bytes unknown: no "bytes" member
  report.warnings = {w1, w2};

  analysis::CriticalDependencyError data_err;
  data_err.kind = analysis::CriticalDependencyError::Kind::kData;
  data_err.function = "apply_command";
  data_err.critical_value = "thrust_cmd";
  data_err.region_names = {"ground_link", "param_table"};
  data_err.source_loads.resize(2);  // invalid locations -> "<unknown>"
  analysis::CriticalDependencyError ctrl_err;
  ctrl_err.kind = analysis::CriticalDependencyError::Kind::kControl;
  ctrl_err.function = "mode_switch";
  ctrl_err.critical_value = "mode";
  ctrl_err.region_names = {"debug_port"};
  report.errors = {data_err, ctrl_err};

  analysis::RestrictionViolation v;
  v.rule = "R2";
  v.message = "function pointer escapes core";
  report.restriction_violations = {v};

  report.asserts_checked = 7;
  report.required_runtime_checks = {"InitCheck(region 'param_table')"};
  report.degraded_phases = {"taint"};
  report.failed_files = {"bad_input.c"};
  return report;
}

TEST(ReportRoundTrip, AllCategoriesSurviveTheWorkerProtocol) {
  support::SourceManager sm;
  analysis::SafeFlowReport report = fullReport();
  report.deduplicate(sm);  // the driver always dedups before rendering

  for (const bool json : {false, true}) {
    const RunOutput run = runFor(report, sm, json);
    // Exit ladder: 1 data error beats frontend errors and degradation.
    EXPECT_EQ(run.exit_code, 1);
    expectSameRun(roundTrip(run), run);
  }
  // Every category is in the relayed text, down to the runtime checks.
  const RunOutput text = roundTrip(runFor(report, sm, false));
  for (const char* needle :
       {"telemetry_buf' bytes [4, 12)", "[error/data]", "[error/control]",
        "[R2]", "[runtime-check] InitCheck(region 'param_table')",
        "[partial] 'bad_input.c'", "DEGRADED"}) {
    EXPECT_NE(text.stdout_text.find(needle), std::string::npos) << needle;
  }
}

TEST(ReportRoundTrip, EscapeHeavyStringsAreLossless) {
  support::SourceManager sm;
  analysis::SafeFlowReport report;

  analysis::UnsafeAccessWarning w;
  w.function = "fn\"with\\quotes";
  w.region_name = "tab\there\nnewline";
  report.warnings = {w};

  analysis::RestrictionViolation v;
  v.rule = "R1";
  v.message = std::string("ctrl:\x01\x1f end") + "\tand \"both\" \\ kinds";
  report.restriction_violations = {v};

  analysis::CriticalDependencyError e;
  e.function = "f";
  e.critical_value = "value\nwith\nnewlines";
  e.region_names = {"region\\back\\slash"};
  report.errors = {e};
  report.required_runtime_checks = {"check \"quoted\"\tname"};

  for (const bool json : {false, true}) {
    const RunOutput run = runFor(report, sm, json);
    expectSameRun(roundTrip(run), run);
  }
  const RunOutput text = roundTrip(runFor(report, sm, false));
  EXPECT_NE(text.stdout_text.find(std::string("ctrl:\x01\x1f end")),
            std::string::npos);
  EXPECT_NE(text.stdout_text.find("value\nwith\nnewlines"),
            std::string::npos);
}

TEST(ReportRoundTrip, EmptyReportStaysEmptyAndClean) {
  support::SourceManager sm;
  const analysis::SafeFlowReport report;
  const RunOutput run = runFor(report, sm, false);
  EXPECT_EQ(run.exit_code, 0);
  const RunOutput back = roundTrip(run);
  expectSameRun(back, run);
  EXPECT_NE(
      back.stdout_text.find("warnings (unmonitored non-core accesses): 0"),
      std::string::npos);

  // An envelope whose exit code is off the ladder, or that lacks a
  // member, is refused rather than relayed.
  support::json::Value doc;
  ASSERT_TRUE(support::json::parse(
      R"({"exit_code": 7, "stdout": "", "stderr": "", "stats": {}})", &doc));
  RunOutput refused;
  EXPECT_FALSE(readEnvelope(doc, &refused));
  ASSERT_TRUE(support::json::parse(R"({"exit_code": 0, "stdout": ""})", &doc));
  EXPECT_FALSE(readEnvelope(doc, &refused));
}

// The result cache checks what a run read before replaying it, so the
// list must survive the worker protocol, and an envelope without it is
// refused rather than stored without its reads.
TEST(ReportRoundTrip, FileReadsSurviveAndAreRequired) {
  support::SourceManager sm;
  RunOutput run = runFor(analysis::SafeFlowReport{}, sm, false);
  run.reads = {{"core/main.c", "0123456789abcdef"},
               {"core/../common/sys.h", "fedcba9876543210"},
               {"core/quote\"tab\t.h", ""}};
  expectSameRun(roundTrip(run), run);

  support::json::Value doc;
  ASSERT_TRUE(support::json::parse(renderEnvelope(run), &doc));
  ASSERT_EQ(std::erase_if(doc.members,
                          [](const auto& m) { return m.first == "reads"; }),
            1u);
  RunOutput refused;
  EXPECT_FALSE(readEnvelope(doc, &refused));
}

TEST(ReportRoundTrip, LocationsResolveThroughTheSourceManager) {
  // With a live source manager the rendered "file:line:col" strings
  // travel inside the relayed bytes unchanged.
  support::SourceManager sm;
  const auto file = sm.addBuffer("unit.c", "int x;\nint y;\n");
  analysis::SafeFlowReport report;
  analysis::UnsafeAccessWarning w;
  w.location = {file, 2, 5};
  w.function = "f";
  w.region_name = "r";
  report.warnings = {w};

  for (const bool json : {false, true}) {
    const RunOutput back = roundTrip(runFor(report, sm, json));
    EXPECT_NE(back.stdout_text.find("unit.c:2:5"), std::string::npos)
        << back.stdout_text;
    EXPECT_EQ(back.stdout_text, runFor(report, sm, json).stdout_text);
  }
}

}  // namespace
