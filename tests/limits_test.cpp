// Unit tests for the AnalysisBudget layer (support/limits.h) and the
// driver-level degradation semantics it powers.
#include <gtest/gtest.h>

#include <string>

#include "bench/synthetic.h"
#include "safeflow/driver.h"
#include "support/limits.h"

namespace {

using namespace safeflow;
using support::AnalysisBudget;
using support::BudgetLimits;

TEST(AnalysisBudget, UnlimitedByDefault) {
  AnalysisBudget budget;
  EXPECT_FALSE(budget.limited());
  budget.start();
  budget.beginPhase("anything");
  for (int i = 0; i < 100000; ++i) EXPECT_TRUE(budget.step());
  EXPECT_FALSE(budget.exhausted());
  EXPECT_FALSE(budget.anyDegraded());
  EXPECT_TRUE(budget.events().empty());
}

TEST(AnalysisBudget, StepCapTripsAndLatches) {
  BudgetLimits limits;
  limits.phase_steps = 10;
  AnalysisBudget budget(limits);
  budget.start();
  budget.beginPhase("alpha");
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(budget.step());
  EXPECT_FALSE(budget.exhausted());
  EXPECT_FALSE(budget.step());  // 11th trips
  EXPECT_TRUE(budget.exhausted());
  EXPECT_FALSE(budget.step());  // stays tripped
  ASSERT_EQ(budget.events().size(), 1u);
  EXPECT_EQ(budget.events()[0].phase, "alpha");
  EXPECT_EQ(budget.events()[0].reason, "steps");
  EXPECT_TRUE(budget.phaseDegraded("alpha"));
  EXPECT_FALSE(budget.phaseDegraded("beta"));
}

TEST(AnalysisBudget, BeginPhaseResetsStepCount) {
  BudgetLimits limits;
  limits.phase_steps = 5;
  AnalysisBudget budget(limits);
  budget.start();
  budget.beginPhase("first");
  while (budget.step()) {
  }
  EXPECT_TRUE(budget.exhausted());
  budget.beginPhase("second");
  EXPECT_FALSE(budget.exhausted());  // fresh phase, fresh cap
  EXPECT_TRUE(budget.step());
  EXPECT_TRUE(budget.anyDegraded());  // run-level flag persists
}

TEST(AnalysisBudget, BulkStepsCountAsN) {
  BudgetLimits limits;
  limits.phase_steps = 100;
  AnalysisBudget budget(limits);
  budget.start();
  budget.beginPhase("bulk");
  EXPECT_TRUE(budget.step(100));
  EXPECT_FALSE(budget.step(1));
}

TEST(AnalysisBudget, DepthCapRecordsOneEventPerPhaseAndGoesOn) {
  AnalysisBudget budget;  // unlimited steps and time; depth cap 32
  EXPECT_EQ(budget.maxDepth(), 32u);
  budget.start();
  budget.beginPhase("taint");
  budget.noteDepthCap();
  budget.noteDepthCap();
  EXPECT_FALSE(budget.exhausted());  // the phase goes on
  EXPECT_TRUE(budget.step());
  ASSERT_EQ(budget.events().size(), 1u);
  EXPECT_EQ(budget.events()[0].phase, "taint");
  EXPECT_EQ(budget.events()[0].reason, "depth");
  EXPECT_TRUE(budget.anyDegraded());
  budget.beginPhase("again");
  budget.noteDepthCap();
  EXPECT_EQ(budget.events().size(), 2u);
}

TEST(AnalysisBudget, NullHelperAlwaysSucceeds) {
  EXPECT_TRUE(support::budgetStep(nullptr));
  support::budgetBeginPhase(nullptr, "x");  // must not crash
}

TEST(ParseDuration, AcceptsCommonForms) {
  double s = 0.0;
  EXPECT_TRUE(support::parseDuration("250ms", &s));
  EXPECT_DOUBLE_EQ(s, 0.25);
  EXPECT_TRUE(support::parseDuration("2s", &s));
  EXPECT_DOUBLE_EQ(s, 2.0);
  EXPECT_TRUE(support::parseDuration("1500us", &s));
  EXPECT_DOUBLE_EQ(s, 0.0015);
  EXPECT_TRUE(support::parseDuration("0.5", &s));
  EXPECT_DOUBLE_EQ(s, 0.5);
  EXPECT_TRUE(support::parseDuration("2m", &s));
  EXPECT_DOUBLE_EQ(s, 120.0);
}

TEST(ParseDuration, RejectsMalformed) {
  double s = 0.0;
  EXPECT_FALSE(support::parseDuration("", &s));
  EXPECT_FALSE(support::parseDuration("abc", &s));
  EXPECT_FALSE(support::parseDuration("10parsecs", &s));
  EXPECT_FALSE(support::parseDuration("-5s", &s));
}

// -- driver-level degradation -----------------------------------------------

constexpr const char* kSource = R"(
typedef struct State { int speed; int mode; } State;

State* st;
extern void* shmat(int shmid, void* addr, int flags);

/*** SafeFlow Annotation shminit ***/
void init_comm(void) {
  st = (State*)shmat(0, 0, 0);
  /*** SafeFlow Annotation assume(shmvar(st, sizeof(State))) ***/
  /*** SafeFlow Annotation assume(noncore(st)) ***/
}

int read_speed(State* p)
/*** SafeFlow Annotation assume(core(p, 0, sizeof(State))) ***/
{
  return p->speed;
}

int read_mode(State* p) { return p->mode; }

int main(void) {
  int v;
  int m;
  init_comm();
  v = read_speed(st);
  m = read_mode(st);
  /*** SafeFlow Annotation assert(safe(v)); ***/
  /*** SafeFlow Annotation assert(safe(m)); ***/
  return v + m;
}
)";

TEST(DriverBudget, UnlimitedRunIsNotDegraded) {
  SafeFlowDriver driver;
  driver.addSource("clean.c", kSource);
  const auto& report = driver.analyze();
  EXPECT_FALSE(driver.degraded());
  EXPECT_TRUE(report.degraded_phases.empty());
  // No degradation marker may leak into the renderings of a full run.
  EXPECT_EQ(report.renderJson(driver.sources()).find("degraded"),
            std::string::npos);
  EXPECT_EQ(driver.stats().renderJson().find("degraded"),
            std::string::npos);
}

TEST(DriverBudget, TinyStepBudgetDegradesConservatively) {
  SafeFlowOptions options;
  options.budget.phase_steps = 1;
  SafeFlowDriver driver(options);
  driver.addSource("tiny.c", kSource);
  const auto& report = driver.analyze();
  EXPECT_TRUE(driver.degraded());
  EXPECT_FALSE(report.degraded_phases.empty());
  // Every rendering carries the degradation marker.
  EXPECT_NE(report.renderJson(driver.sources()).find("\"degraded\": true"),
            std::string::npos);
  EXPECT_NE(driver.stats().renderJson().find("\"degraded\": true"),
            std::string::npos);
  EXPECT_NE(report.render(driver.sources()).find("DEGRADED"),
            std::string::npos);
  // And a `budget` diagnostic names each tripped phase.
  std::size_t budget_diags = 0;
  for (const auto& d : driver.diagnostics().diagnostics()) {
    if (d.category == "budget") ++budget_diags;
  }
  EXPECT_EQ(budget_diags, report.degraded_phases.size());
}

TEST(DriverBudget, TimeBudgetAlreadyExpiredTripsEveryPhase) {
  SafeFlowOptions options;
  options.budget.time_seconds = 1e-9;  // expires before the first step
  SafeFlowDriver driver(options);
  driver.addSource("expired.c", kSource);
  driver.analyze();
  EXPECT_TRUE(driver.degraded());
  for (const auto& e : driver.budget().events()) {
    EXPECT_EQ(e.reason, "time");
  }
}

// monitorFanProgram(2, 40): two monitors reach the critical sink through
// a 40-deep helper chain. Call strings analyze each helper in a context one
// deeper than its caller, so the default cap of 32 cuts the chain.
SafeFlowOptions callStrings(unsigned max_depth) {
  SafeFlowOptions options;
  options.taint.mode = analysis::TaintOptions::Mode::kCallStrings;
  options.budget.max_depth = max_depth;
  return options;
}

TEST(DriverBudget, CallStringsPastTheDepthCapAreDegraded) {
  const std::string fan = bench::monitorFanProgram(2, 40);
  SafeFlowDriver summaries;
  summaries.addSource("fan.c", fan);
  EXPECT_EQ(summaries.analyze().dataErrorCount(), 2u);
  EXPECT_FALSE(summaries.degraded());

  // Past the cap the helpers' flows are lost: the run must not certify.
  SafeFlowDriver capped(callStrings(BudgetLimits{}.max_depth));
  capped.addSource("fan.c", fan);
  const auto& report = capped.analyze();
  EXPECT_EQ(report.dataErrorCount(), 0u);
  EXPECT_TRUE(capped.degraded());
  ASSERT_EQ(capped.budget().events().size(), 1u);
  EXPECT_EQ(capped.budget().events()[0].phase, "taint");
  EXPECT_EQ(capped.budget().events()[0].reason, "depth");
  EXPECT_NE(report.render(capped.sources()).find("DEGRADED"),
            std::string::npos);

  // A cap the chain fits under finds both flows and certifies.
  SafeFlowDriver deep(callStrings(64));
  deep.addSource("fan.c", fan);
  EXPECT_EQ(deep.analyze().dataErrorCount(), 2u);
  EXPECT_FALSE(deep.degraded());
}

TEST(DriverBudget, DepthCapOfOneDegradesGenericSimplex) {
  // --mode=call-strings --max-depth 1 --kill-critical loses the
  // riggable-feedback error; the run says so instead of reporting less.
  const std::string corpus = SAFEFLOW_CORPUS_DIR;
  for (const unsigned max_depth : {1u, 32u}) {
    SafeFlowOptions options = callStrings(max_depth);
    options.include_dirs.push_back(corpus + "/generic_simplex/common");
    options.taint.implicit_critical_calls.emplace_back("kill", 0u);
    SafeFlowDriver driver(options);
    for (const char* file : {"comm.c", "config.c", "estimator.c", "main.c",
                             "monitors.c", "profile.c", "safety.c",
                             "watchdog.c"}) {
      ASSERT_TRUE(driver.addFile(corpus + "/generic_simplex/core/" + file));
    }
    const auto& report = driver.analyze();
    EXPECT_EQ(report.dataErrorCount(), max_depth == 1 ? 1u : 2u);
    EXPECT_EQ(driver.degraded(), max_depth == 1) << max_depth;
  }
}

TEST(DriverBudget, FailedFileIsIsolatedAndListed) {
  SafeFlowDriver driver;
  driver.addSource("broken.c", "int f( { garbage !!!");
  driver.addSource("good.c", kSource);
  const auto& report = driver.analyze();
  EXPECT_TRUE(driver.hasFrontendErrors());
  ASSERT_EQ(driver.failedFiles().size(), 1u);
  EXPECT_EQ(driver.failedFiles()[0], "broken.c");
  ASSERT_EQ(report.failed_files.size(), 1u);
  // The good file's analysis still produced results.
  EXPECT_GE(report.asserts_checked, 2u);
  EXPECT_NE(report.renderJson(driver.sources()).find("\"failed_files\""),
            std::string::npos);
}

}  // namespace
