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
// a 40-deep helper chain. Call strings give every helper one context per
// monitor, added call by call on the function worklist, so no depth of
// chain cuts a flow.
TEST(DriverBudget, CallStringsFollowAChainOfAnyDepth) {
  const std::string fan = bench::monitorFanProgram(2, 40);
  SafeFlowDriver summaries;
  summaries.addSource("fan.c", fan);
  EXPECT_EQ(summaries.analyze().dataErrorCount(), 2u);
  EXPECT_FALSE(summaries.degraded());

  SafeFlowOptions options;
  options.taint.mode = analysis::TaintOptions::Mode::kCallStrings;
  SafeFlowDriver call_strings(options);
  call_strings.addSource("fan.c", fan);
  const auto& report = call_strings.analyze();
  EXPECT_EQ(report.dataErrorCount(), 2u);
  EXPECT_FALSE(call_strings.degraded());
  EXPECT_TRUE(call_strings.budget().events().empty());
  EXPECT_EQ(report.render(call_strings.sources()).find("DEGRADED"),
            std::string::npos);
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
