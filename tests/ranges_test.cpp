// Tests for the interprocedural value-range analysis (PR: ranges pass),
// its three consumers (A2 seeding, taint edge pruning, shm-bounds-const),
// and the degradation contract.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "analysis/ranges.h"
#include "bench/synthetic.h"
#include "ir/callgraph.h"
#include "safeflow/driver.h"

namespace {

using namespace safeflow;
using analysis::Interval;
using analysis::RangeAnalysis;

// ---------------------------------------------------------------------------
// Interval unit tests
// ---------------------------------------------------------------------------

TEST(Interval, TopAndConstant) {
  EXPECT_TRUE(Interval::top().isTop());
  EXPECT_FALSE(Interval::top().boundedBelow());
  EXPECT_FALSE(Interval::top().boundedAbove());
  const Interval c = Interval::constant(7);
  EXPECT_TRUE(c.isSingleton());
  EXPECT_TRUE(c.contains(7));
  EXPECT_FALSE(c.contains(8));
}

TEST(Interval, JoinIsConvexHull) {
  const Interval a{0, 3};
  const Interval b{10, 12};
  const Interval j = a.join(b);
  EXPECT_EQ(j.lo, 0);
  EXPECT_EQ(j.hi, 12);
  EXPECT_TRUE(Interval::top().join(a).isTop());
}

TEST(Interval, MeetIsIntersection) {
  const Interval a{0, 10};
  const Interval b{5, 20};
  const auto m = a.meet(b);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->lo, 5);
  EXPECT_EQ(m->hi, 10);
  EXPECT_FALSE((Interval{0, 3}.meet(Interval{4, 9}).has_value()));
}

TEST(Interval, StrMarksUnboundedSides) {
  EXPECT_EQ((Interval{4, 12}).str(), "[4, 12]");
  EXPECT_NE(Interval::top().str().find("-inf"), std::string::npos);
  EXPECT_NE(Interval::top().str().find("+inf"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Driver-level fixtures
// ---------------------------------------------------------------------------

const char* kRingPrelude = R"(
typedef struct Slot { float v; } Slot;
Slot *ring;
extern void *shmat(int shmid, void *addr, int flags);
extern int shmget(int key, int size, int flags);
extern int readInt(void);
extern void sendControl(float v);

/*** SafeFlow Annotation shminit ***/
void initRing(void)
{
  void *p;
  p = shmat(shmget(7, 8 * sizeof(Slot), 0), 0, 0);
  ring = (Slot *) p;
  /*** SafeFlow Annotation assume(shmvar(ring, 8 * sizeof(Slot))) ***/
  /*** SafeFlow Annotation assume(noncore(ring)) ***/
}
)";

std::unique_ptr<SafeFlowDriver> analyzeRing(const std::string& body,
                                            bool ranges_enabled = true) {
  SafeFlowOptions o;
  o.ranges.enabled = ranges_enabled;
  auto d = std::make_unique<SafeFlowDriver>(o);
  d->addSource("ring.c", std::string(kRingPrelude) + body);
  d->analyze();
  EXPECT_FALSE(d->hasFrontendErrors())
      << d->diagnostics().render(d->sources());
  return d;
}

std::size_t countRule(const SafeFlowDriver& d, const std::string& rule) {
  std::size_t n = 0;
  for (const auto& v : d.report().restriction_violations) {
    if (v.rule == rule) ++n;
  }
  return n;
}

std::uint64_t counter(const SafeFlowDriver& d, const std::string& name) {
  for (const auto& [k, v] : d.stats().counters) {
    if (k == name) return v;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Engine API (direct RangeAnalysis over the driver's module)
// ---------------------------------------------------------------------------

TEST(RangeAnalysisApi, ClampedArgumentAndReturnRanges) {
  const auto d = analyzeRing(R"(
int clamp(int r)
{
  if (r < 4) { return 4; }
  if (r > 12) { return 12; }
  return r;
}
int main(void) { initRing(); sendControl((float) clamp(readInt())); return 0; }
)");
  const ir::Module* m = d->module();
  ASSERT_NE(m, nullptr);
  ir::CallGraph cg(*m);
  RangeAnalysis ra(*m, cg);
  ra.run();
  ASSERT_TRUE(ra.enabled());
  ASSERT_FALSE(ra.degraded());

  const ir::Function* clamp = m->findFunction("clamp");
  ASSERT_NE(clamp, nullptr);
  // The argument comes from readInt(): the full int range.
  const Interval arg = ra.rangeOf(clamp->args()[0]);
  EXPECT_TRUE(arg.boundedBelow());
  EXPECT_TRUE(arg.boundedAbove());
  // Every ret-site contribution lies in [4, 12].
  for (const auto& bb : clamp->blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() != ir::Opcode::kRet || inst->numOperands() == 0) {
        continue;
      }
      const Interval at = ra.rangeAt(inst->operand(0), bb);
      EXPECT_GE(at.lo, 4) << at.str();
      EXPECT_LE(at.hi, 12) << at.str();
    }
  }
}

TEST(RangeAnalysisApi, DisabledAnswersTop) {
  const auto d = analyzeRing(
      "int main(void) { initRing(); return 0; }");
  const ir::Module* m = d->module();
  ir::CallGraph cg(*m);
  analysis::RangeOptions opts;
  opts.enabled = false;
  RangeAnalysis ra(*m, cg, opts);
  ra.run();
  EXPECT_FALSE(ra.enabled());
  const ir::Function* main_fn = m->findFunction("main");
  ASSERT_NE(main_fn, nullptr);
  for (const auto& bb : main_fn->blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->type() != nullptr && inst->type()->isInteger()) {
        EXPECT_TRUE(ra.rangeOf(inst).isTop());
      }
    }
  }
  EXPECT_EQ(ra.decidedBranchCount(), 0u);
}

// ---------------------------------------------------------------------------
// Consumer 1: A2 discharge
// ---------------------------------------------------------------------------

const char* kClampedLoop = R"(
static int windowSize(int request)
{
  if (request < 2) { return 2; }
  if (request > 6) { return 6; }
  return request;
}
float smooth(int request)
{
  float acc;
  int n;
  int i;
  n = windowSize(request);
  acc = 0.0f;
  for (i = 0; i < n; i++) { acc = acc + ring[i].v; }
  return acc;
}
int main(void) { initRing(); sendControl(smooth(readInt())); return 0; }
)";

TEST(RangeConsumers, ClampedLoopBoundDischargesWithRanges) {
  const auto d = analyzeRing(kClampedLoop);
  EXPECT_EQ(countRule(*d, "A2"), 0u) << d->report().render(d->sources());
  EXPECT_GE(counter(*d, "ranges.bounds_seeded"), 1u);
  EXPECT_GE(counter(*d, "ranges.a2_discharged"), 1u);
}

TEST(RangeConsumers, ClampedLoopBoundWarnsWithoutRanges) {
  const auto d = analyzeRing(kClampedLoop, /*ranges_enabled=*/false);
  EXPECT_GE(countRule(*d, "A2"), 1u) << d->report().render(d->sources());
  EXPECT_EQ(counter(*d, "ranges.a2_discharged"), 0u);
  EXPECT_EQ(counter(*d, "ranges.bounds_seeded"), 0u);
}

TEST(RangeConsumers, NotEqualGuardPinsTheIndex) {
  // On the fall-through edge of `k != 3` the range meets [3, 3]; the
  // access discharges even though k itself is the full int range.
  const auto d = analyzeRing(R"(
float get(int k)
{
  if (k != 3) { return 0.0f; }
  return ring[k].v;
}
int main(void) { initRing(); sendControl(get(readInt())); return 0; }
)");
  EXPECT_EQ(countRule(*d, "A2"), 0u) << d->report().render(d->sources());
}

TEST(RangeConsumers, UnsignedWraparoundIsNotDischarged) {
  // k in [0, 5] but `k - 1` wraps at k == 0: the subtraction must
  // normalize to the full unsigned range, so the obligation is reported,
  // not discharged from a naive [-1, 4].
  const auto d = analyzeRing(R"(
float get(unsigned int k)
{
  if (k < 6) { return ring[k - 1].v; }
  return 0.0f;
}
int main(void) { initRing(); sendControl(get(0u)); return 0; }
)");
  EXPECT_GE(countRule(*d, "A2"), 1u) << d->report().render(d->sources());
}

TEST(RangeConsumers, SwitchDispatchBoundsTheIndex) {
  // Each case edge pins the selector; the default arm routes to a safe
  // constant. All indexed accesses stay within the 8-slot ring.
  const auto d = analyzeRing(R"(
float pick(int sel)
{
  int idx;
  switch (sel) {
  case 0: idx = 1; break;
  case 1: idx = 5; break;
  default: idx = 0; break;
  }
  return ring[idx].v;
}
int main(void) { initRing(); sendControl(pick(readInt())); return 0; }
)");
  EXPECT_EQ(countRule(*d, "A2"), 0u) << d->report().render(d->sources());
}

// ---------------------------------------------------------------------------
// Consumer 3: shm-bounds-const
// ---------------------------------------------------------------------------

const char* kTailLoop = R"(
float tail(void)
{
  float acc;
  int j;
  acc = 0.0f;
  for (j = 8; j < 11; j++) { acc = acc + ring[j].v; }
  return acc;
}
int main(void) { initRing(); sendControl(tail()); return 0; }
)";

TEST(RangeConsumers, DefiniteOutOfBoundsFlaggedAsShmBoundsConst) {
  const auto d = analyzeRing(kTailLoop);
  EXPECT_GE(countRule(*d, "A2"), 1u);
  EXPECT_EQ(countRule(*d, "shm-bounds-const"), 1u)
      << d->report().render(d->sources());
  EXPECT_EQ(counter(*d, "ranges.shm_bounds_const.violations"), 1u);
}

TEST(RangeConsumers, ShmBoundsConstAbsentWithoutRanges) {
  const auto d = analyzeRing(kTailLoop, /*ranges_enabled=*/false);
  EXPECT_GE(countRule(*d, "A2"), 1u);
  EXPECT_EQ(countRule(*d, "shm-bounds-const"), 0u);
}

TEST(RangeConsumers, InBoundsAccessNotFlagged) {
  const auto d = analyzeRing(
      "float get(void) { return ring[7].v; }\n"
      "int main(void) { initRing(); sendControl(get()); return 0; }");
  EXPECT_EQ(countRule(*d, "shm-bounds-const"), 0u)
      << d->report().render(d->sources());
}

// ---------------------------------------------------------------------------
// Degradation contract
// ---------------------------------------------------------------------------

TEST(RangeDegradation, BudgetTripDegradesToTopAndReportsNothing) {
  SafeFlowOptions o;
  o.budget.phase_steps = 10;  // trips in every analysis phase
  SafeFlowDriver d(o);
  d.addSource("ring.c", std::string(kRingPrelude) + kTailLoop);
  d.analyze();
  EXPECT_TRUE(d.degraded());
  // Degraded ranges must not produce definite-out-of-bounds findings.
  std::size_t sbc = 0;
  for (const auto& v : d.report().restriction_violations) {
    if (v.rule == "shm-bounds-const") ++sbc;
  }
  EXPECT_EQ(sbc, 0u);
  EXPECT_EQ(counter(d, "ranges.a2_discharged"), 0u);
}

// ---------------------------------------------------------------------------
// Long functions
// ---------------------------------------------------------------------------

// 2,000 sequential ifs make one function whose dominator tree is about
// 4,000 blocks deep. Every block's refinement chain walks up that tree, so
// a predecessor scan or a dominance query that grows with the function
// inside the walk made the pass cubic: 1,000 ifs took most of a minute.
TEST(RangeScaling, LongStraightLineFunctionStaysClean) {
  std::string src = "int longFunction(int x)\n{\n    int y;\n    y = 0;\n";
  for (int k = 0; k < 2000; ++k) {
    src += "    if (x > " + std::to_string(k) + ") { y = y + 1; }\n";
  }
  src += "    return y;\n}\n";
  SafeFlowDriver d;
  d.addSource("long.c", src);
  const auto& report = d.analyze();
  EXPECT_FALSE(d.hasFrontendErrors());
  EXPECT_FALSE(d.degraded());
  EXPECT_TRUE(report.warnings.empty());
  EXPECT_EQ(report.dataErrorCount(), 0u);
  EXPECT_EQ(report.controlErrorCount(), 0u);
  EXPECT_TRUE(report.restriction_violations.empty());
  EXPECT_GT(counter(d, "ranges.function_analyses"), 0u);
}

// ---------------------------------------------------------------------------
// The interprocedural schedule
// ---------------------------------------------------------------------------

// pick() is seeded before main (callees first), while n has no range yet.
// main's call joins n = [5, 5] into it; that growth has to wake pick, whose
// second visit decides `n > 100` false and prunes the branch's control
// edge.
TEST(RangeSchedule, GrownFormalWakesTheCallee) {
  const auto d = analyzeRing(R"(
float out;
void pick(int n, float safe)
{
  out = safe;
  if (n > 100) {
    out = ring[0].v;
  }
}
int main(void)
{
  initRing();
  pick(5, 1.0f);
  sendControl(out);
  return 0;
}
)");
  EXPECT_EQ(counter(*d, "ranges.branches_decided"), 1u);
  EXPECT_EQ(counter(*d, "ranges.control_edges_pruned"), 1u);
  // initRing, pick, main, then pick again.
  EXPECT_EQ(counter(*d, "ranges.function_analyses"), 4u);
}

TEST(RangeWorkload, ProgramsKeepFunctionAnalysesAndRepeatInProcess) {
  // Each workload function is visited once before main and once after
  // main joins its arguments. Two analyses in one process schedule alike:
  // nothing in the worklist is ordered by address.
  struct Expected {
    const char* name;
    std::string source;
    std::uint64_t function_analyses;
  };
  const Expected runs[] = {
      {"scalingProgram(2000)", bench::scalingProgram(2000), 4002},
      {"accumulatorCycleProgram(12, 96)",
       bench::accumulatorCycleProgram(12, 96), 26},
      {"pointerChurnProgram(200, 32)", bench::pointerChurnProgram(200, 32),
       434},
  };
  for (const Expected& e : runs) {
    SafeFlowDriver first;
    first.addSource("workload.c", e.source);
    first.analyze();
    ASSERT_FALSE(first.hasFrontendErrors()) << e.name;
    EXPECT_EQ(counter(first, "ranges.function_analyses"),
              e.function_analyses)
        << e.name;
    SafeFlowDriver second;
    second.addSource("workload.c", e.source);
    second.analyze();
    EXPECT_EQ(first.stats().counters, second.stats().counters) << e.name;
  }
}

// ---------------------------------------------------------------------------
// Determinism: in-process report identical with ranges on across reruns
// ---------------------------------------------------------------------------

TEST(RangeDeterminism, RepeatRunsRenderIdentically) {
  const auto d1 = analyzeRing(kClampedLoop);
  const auto d2 = analyzeRing(kClampedLoop);
  EXPECT_EQ(d1->report().render(d1->sources()),
            d2->report().render(d2->sources()));
}

}  // namespace
