// Focused tests for the phase-3 value-flow engine: parameterized
// summaries (per-call-site context sensitivity), effective-assumption
// intersection, implicit critical calls, provenance, the revisit edges of
// the sparse body solver, and the pool that interns taint values.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/taint.h"
#include "bench/synthetic.h"
#include "safeflow/driver.h"

namespace {

using namespace safeflow;
using analysis::CriticalDependencyError;

const char* kPrelude = R"(
typedef struct Cell { float value; int flag; } Cell;
Cell *nc;
extern void *shmat(int id, void *a, int f);
extern int shmget(int k, int s, int f);
extern void sink(float v);
extern int kill(int pid, int sig);
/*** SafeFlow Annotation shminit ***/
void initShm(void)
{
    nc = (Cell *) shmat(shmget(1, sizeof(Cell), 0), 0, 0);
    /*** SafeFlow Annotation assume(shmvar(nc, sizeof(Cell))) ***/
    /*** SafeFlow Annotation assume(noncore(nc)) ***/
}
)";

std::unique_ptr<SafeFlowDriver> analyze(const std::string& body,
                                        SafeFlowOptions options = {}) {
  auto d = std::make_unique<SafeFlowDriver>(std::move(options));
  d->addSource("t.c", std::string(kPrelude) + body);
  d->analyze();
  EXPECT_FALSE(d->hasFrontendErrors())
      << d->diagnostics().render(d->sources());
  return d;
}

TEST(ParamSummaries, SharedHelperDoesNotSmearAcrossCallSites) {
  // Regression: `clamp` is called with both tainted and clean arguments.
  // Parameterized summaries must keep the clean call site clean.
  const auto d = analyze(R"(
float clamp(float v)
{
    if (v > 5.0f) { return 5.0f; }
    if (v < -5.0f) { return -5.0f; }
    return v;
}
int main(void)
{
    float dirty;
    float clean;
    initShm();
    dirty = clamp(nc->value);
    clean = clamp(1.25f);
    /*** SafeFlow Annotation assert(safe(dirty)); ***/
    /*** SafeFlow Annotation assert(safe(clean)); ***/
    sink(dirty + clean);
    return 0;
}
)");
  ASSERT_EQ(d->report().errors.size(), 1u)
      << d->report().render(d->sources());
  EXPECT_EQ(d->report().errors.front().critical_value, "dirty");
}

TEST(ParamSummaries, TwoLevelHelperChain) {
  const auto d = analyze(R"(
float inner(float v) { return v * 2.0f; }
float outer(float v) { return inner(v) + 1.0f; }
int main(void)
{
    float dirty;
    float clean;
    initShm();
    dirty = outer(nc->value);
    clean = outer(3.0f);
    /*** SafeFlow Annotation assert(safe(dirty)); ***/
    /*** SafeFlow Annotation assert(safe(clean)); ***/
    sink(dirty + clean);
    return 0;
}
)");
  ASSERT_EQ(d->report().errors.size(), 1u)
      << d->report().render(d->sources());
  EXPECT_EQ(d->report().errors.front().critical_value, "dirty");
}

TEST(ParamSummaries, ControlFlowInsideHelperStaysPerCallSite) {
  // The helper branches on its parameter; only the tainted call site's
  // result may carry control taint.
  const auto d = analyze(R"(
int classify(float v)
{
    if (v > 0.0f) { return 1; }
    return 0;
}
int main(void)
{
    int dirty;
    int clean;
    initShm();
    dirty = classify(nc->value);
    clean = classify(-2.0f);
    /*** SafeFlow Annotation assert(safe(dirty)); ***/
    /*** SafeFlow Annotation assert(safe(clean)); ***/
    return dirty + clean;
}
)");
  ASSERT_EQ(d->report().errors.size(), 1u)
      << d->report().render(d->sources());
  EXPECT_EQ(d->report().errors.front().critical_value, "dirty");
  EXPECT_EQ(d->report().errors.front().kind,
            CriticalDependencyError::Kind::kControl);
}

TEST(ParamSummaries, EscapeThroughMemoryUsesMergedTaint) {
  // When a parameter escapes into memory, the merged (concrete) taint is
  // used — conservative across call sites.
  const auto d = analyze(R"(
float box;
void stash(float v) { box = v; }
int main(void)
{
    float out;
    initShm();
    stash(nc->value);
    stash(0.5f);
    out = box;
    /*** SafeFlow Annotation assert(safe(out)); ***/
    sink(out);
    return 0;
}
)");
  ASSERT_EQ(d->report().errors.size(), 1u);
  EXPECT_EQ(d->report().errors.front().kind,
            CriticalDependencyError::Kind::kData);
}

TEST(Assumptions, IntersectionOverCallers) {
  // helper is called from a monitor and from an unmonitored function: its
  // effective assumptions are the intersection (empty), so its read
  // warns once.
  const auto d = analyze(R"(
float helper(void) { return nc->value; }
float monitor(void)
/*** SafeFlow Annotation assume(core(nc, 0, sizeof(Cell))) ***/
{
    return helper();
}
float unmonitored(void) { return helper(); }
int main(void)
{
    float a;
    initShm();
    a = monitor() + unmonitored();
    sink(a);
    return 0;
}
)");
  std::size_t helper_warnings = 0;
  for (const auto& w : d->report().warnings) {
    if (w.function == "helper") ++helper_warnings;
  }
  EXPECT_EQ(helper_warnings, 1u) << d->report().render(d->sources());
}

TEST(Assumptions, AllCallersMonitoredMeansCovered) {
  const auto d = analyze(R"(
float helper(void) { return nc->value; }
float monitorA(void)
/*** SafeFlow Annotation assume(core(nc, 0, sizeof(Cell))) ***/
{
    return helper();
}
float monitorB(void)
/*** SafeFlow Annotation assume(core(nc, 0, sizeof(Cell))) ***/
{
    return helper() * 2.0f;
}
int main(void)
{
    float a;
    initShm();
    a = monitorA() + monitorB();
    /*** SafeFlow Annotation assert(safe(a)); ***/
    sink(a);
    return 0;
}
)");
  EXPECT_TRUE(d->report().warnings.empty())
      << d->report().render(d->sources());
  EXPECT_TRUE(d->report().errors.empty());
}

TEST(Assumptions, RecursiveMonitorCoversItself) {
  const auto d = analyze(R"(
float walk(int depth)
/*** SafeFlow Annotation assume(core(nc, 0, sizeof(Cell))) ***/
{
    if (depth <= 0) { return nc->value; }
    return walk(depth - 1) * 0.5f;
}
int main(void)
{
    float a;
    initShm();
    a = walk(3);
    /*** SafeFlow Annotation assert(safe(a)); ***/
    sink(a);
    return 0;
}
)");
  EXPECT_TRUE(d->report().errors.empty())
      << d->report().render(d->sources());
}

TEST(ImplicitCritical, KillWithoutAnnotation) {
  SafeFlowOptions options;
  options.taint.implicit_critical_calls = {{"kill", 0}};
  const auto d = analyze(R"(
int main(void)
{
    initShm();
    kill(nc->flag, 9);
    return 0;
}
)",
                         options);
  ASSERT_EQ(d->report().errors.size(), 1u);
  EXPECT_EQ(d->report().errors.front().critical_value, "kill(arg0)");
}

TEST(ImplicitCritical, DisabledByDefault) {
  const auto d = analyze(R"(
int main(void)
{
    initShm();
    kill(nc->flag, 9);
    return 0;
}
)");
  EXPECT_TRUE(d->report().errors.empty());
}

TEST(Provenance, ErrorCitesTheExactLoad) {
  const auto d = analyze(R"(
int main(void)
{
    float out;
    initShm();
    out = nc->value;
    /*** SafeFlow Annotation assert(safe(out)); ***/
    sink(out);
    return 0;
}
)");
  ASSERT_EQ(d->report().errors.size(), 1u);
  ASSERT_EQ(d->report().errors.front().source_loads.size(), 1u);
  // The load and the single warning must be the same site.
  ASSERT_EQ(d->report().warnings.size(), 1u);
  EXPECT_EQ(d->report().errors.front().source_loads.front(),
            d->report().warnings.front().location);
}

TEST(Provenance, MultipleLoadsAllCited) {
  const auto d = analyze(R"(
int main(void)
{
    float out;
    initShm();
    out = nc->value + (float)nc->flag;
    /*** SafeFlow Annotation assert(safe(out)); ***/
    sink(out);
    return 0;
}
)");
  ASSERT_EQ(d->report().errors.size(), 1u);
  EXPECT_EQ(d->report().errors.front().source_loads.size(), 2u);
}

TEST(Sanitization, OverwritingWithCleanValueClearsTaint) {
  // SSA flow sensitivity: after reassignment, the old taint is gone.
  const auto d = analyze(R"(
int main(void)
{
    float out;
    initShm();
    out = nc->value;
    out = 1.0f;
    /*** SafeFlow Annotation assert(safe(out)); ***/
    sink(out);
    return 0;
}
)");
  EXPECT_TRUE(d->report().errors.empty())
      << d->report().render(d->sources());
}

TEST(Sanitization, PartialOverwriteOnOneBranchKeepsTaint) {
  const auto d = analyze(R"(
extern int flip(void);
int main(void)
{
    float out;
    initShm();
    out = nc->value;
    if (flip()) { out = 1.0f; }
    /*** SafeFlow Annotation assert(safe(out)); ***/
    sink(out);
    return 0;
}
)");
  ASSERT_EQ(d->report().errors.size(), 1u);
  EXPECT_EQ(d->report().errors.front().kind,
            CriticalDependencyError::Kind::kData);
}

TEST(CallStrings, ContextSplitsAssumptions) {
  // In call-strings mode, helper's load is safe in the monitored context
  // and unsafe in the unmonitored one; the unmonitored result must be
  // flagged, the monitored one must not.
  SafeFlowOptions options;
  options.taint.mode = analysis::TaintOptions::Mode::kCallStrings;
  const auto d = analyze(R"(
float helper(void) { return nc->value; }
float monitor(void)
/*** SafeFlow Annotation assume(core(nc, 0, sizeof(Cell))) ***/
{
    return helper();
}
int main(void)
{
    float bad;
    initShm();
    bad = helper();
    /*** SafeFlow Annotation assert(safe(bad)); ***/
    sink(bad + monitor());
    return 0;
}
)",
                         options);
  ASSERT_EQ(d->report().errors.size(), 1u)
      << d->report().render(d->sources());
  EXPECT_EQ(d->report().errors.front().critical_value, "bad");
}

// ---------------------------------------------------------------------------
// Sparse body solver: one program per revisit edge
// ---------------------------------------------------------------------------
//
// The solver evaluates a body once in block order, then re-evaluates only
// what each growth can reach. Summary mode visits a function again only
// when something another function writes grew, so a missing revisit edge
// changes the findings. Every test pins the number of body analyses too:
// one per function in summary mode.

using Kind = CriticalDependencyError::Kind;
using Mode = analysis::TaintOptions::Mode;

std::uint64_t counter(const SafeFlowDriver& d, const std::string& name) {
  for (const auto& [k, v] : d.stats().counters) {
    if (k == name) return v;
  }
  return 0;
}

/// One expected error dependency: the critical value and its kind.
using Finding = std::pair<std::string, Kind>;

void expectFindings(const SafeFlowDriver& d, std::size_t warnings,
                    const std::vector<Finding>& errors,
                    std::uint64_t body_analyses) {
  const std::string report = d.report().render(d.sources());
  EXPECT_EQ(d.report().warnings.size(), warnings) << report;
  ASSERT_EQ(d.report().errors.size(), errors.size()) << report;
  for (std::size_t i = 0; i < errors.size(); ++i) {
    EXPECT_EQ(d.report().errors[i].critical_value, errors[i].first)
        << report;
    EXPECT_EQ(d.report().errors[i].kind, errors[i].second) << report;
  }
  EXPECT_EQ(counter(d, "taint.body_analyses"), body_analyses) << report;
}

SafeFlowOptions inMode(Mode mode) {
  SafeFlowOptions options;
  options.taint.mode = mode;
  return options;
}

class SparseSolver : public testing::TestWithParam<Mode> {};

TEST_P(SparseSolver, ValueRotatedThroughEightAccumulators) {
  // Each round moves the load's taint one accumulator along: a value
  // edge into a loop-header phi that precedes its definition.
  const auto d = analyze(R"(
int main(void)
{
    float a0; float a1; float a2; float a3;
    float a4; float a5; float a6; float a7;
    int i;
    initShm();
    a0 = 0.0f; a1 = 0.0f; a2 = 0.0f; a3 = 0.0f;
    a4 = 0.0f; a5 = 0.0f; a6 = 0.0f; a7 = 0.0f;
    for (i = 0; i < 16; i++) {
        a7 = a6;
        a6 = a5;
        a5 = a4;
        a4 = a3;
        a3 = a2;
        a2 = a1;
        a1 = a0;
        a0 = nc->value;
    }
    /*** SafeFlow Annotation assert(safe(a7)); ***/
    sink(a7);
    return 0;
}
)",
                         inMode(GetParam()));
  expectFindings(*d, 1, {{"a7", Kind::kData}},
                 1);
}

TEST_P(SparseSolver, ControlTaintReachesEarlierHeaderPhi) {
  // Both arms jump back to the header, whose phi for `mode` picks a
  // constant per arm: only the branch on nc->flag, later in block order,
  // taints it, through the phi's incoming blocks.
  const auto d = analyze(R"(
int main(void)
{
    float mode;
    int i;
    initShm();
    mode = 0.0f;
    i = 0;
    while (i < 16) {
        i = i + 1;
        if (nc->flag) {
            mode = 1.0f;
            continue;
        }
        mode = 2.0f;
    }
    /*** SafeFlow Annotation assert(safe(mode)); ***/
    sink(mode);
    return 0;
}
)",
                         inMode(GetParam()));
  expectFindings(*d, 1, {{"mode", Kind::kControl}},
                 1);
}

TEST_P(SparseSolver, LoadBeforeTheStoreThatTaintsItsObject) {
  // The store grows the local struct after the load already read it.
  const auto d = analyze(R"(
typedef struct Pair { float first; float second; } Pair;
int main(void)
{
    Pair p;
    float out;
    int i;
    initShm();
    p.first = 0.0f;
    out = 0.0f;
    for (i = 0; i < 4; i++) {
        out = p.first;
        p.first = nc->value;
    }
    /*** SafeFlow Annotation assert(safe(out)); ***/
    sink(out);
    return 0;
}
)",
                         inMode(GetParam()));
  expectFindings(*d, 1, {{"out", Kind::kData}},
                 1);
}

TEST_P(SparseSolver, LoopConditionTaintedAfterItsHeaderRan) {
  // The header computes k, then branches on k < limit; limit turns
  // tainted only later in the body, so the branch's control taint has to
  // reach back into the header block that already ran this round.
  const auto d = analyze(R"(
extern int pick(void);
int main(void)
{
    int k;
    int limit;
    initShm();
    limit = 4;
    while ((k = pick()) < limit) {
        limit = nc->flag;
    }
    /*** SafeFlow Annotation assert(safe(k)); ***/
    return k;
}
)",
                         inMode(GetParam()));
  expectFindings(*d, 1, {{"k", Kind::kControl}},
                 1);
}

TEST_P(SparseSolver, SelfRecursionFeedsReturnAndArgumentsBack) {
  // The first self call grows spin's own argument taint, which the store
  // before it resolves `v` against; the second reads spin's return taint,
  // which the return after it grows.
  const auto d = analyze(R"(
float box;
float spin(float v, int n)
{
    float r;
    r = 0.0f;
    box = v;
    if (n == 2) {
        spin(nc->value, 0);
    }
    if (n > 0) {
        r = spin(v, n - 1);
        /*** SafeFlow Annotation assert(safe(r)); ***/
    }
    if (n == 3) {
        return nc->value;
    }
    return r;
}
int main(void)
{
    float out;
    float kept;
    initShm();
    out = spin(1.0f, 3);
    kept = box;
    /*** SafeFlow Annotation assert(safe(kept)); ***/
    sink(out + kept);
    return 0;
}
)",
                         inMode(GetParam()));
  expectFindings(*d, 2, {{"r", Kind::kData}, {"kept", Kind::kData}},
                 GetParam() == Mode::kSummaries ? 2 : 3);
}

TEST_P(SparseSolver, ReceiveBufferReadBeforeTheReceive) {
  // The recv grows the message object the earlier load reads.
  const auto d = analyze(R"(
typedef struct Msg { float value; int kind; } Msg;
int ncSocket;
extern int recv(int socket, void *buffer, int length, int flags);
extern int socketOpen(int port);
void initSockets(void)
{
    ncSocket = socketOpen(9000);
    /*** SafeFlow Annotation assume(noncore(ncSocket)) ***/
}
int main(void)
{
    Msg m;
    float command;
    int i;
    initSockets();
    m.value = 0.0f;
    command = 0.0f;
    for (i = 0; i < 4; i++) {
        command = m.value;
        recv(ncSocket, &m, sizeof(Msg), 0);
    }
    /*** SafeFlow Annotation assert(safe(command)); ***/
    sink(command);
    return 0;
}
)",
                         inMode(GetParam()));
  expectFindings(*d, 1, {{"command", Kind::kData}},
                 2);
}

TEST_P(SparseSolver, NestedAnalysisGrowsAnObjectReadEarlier) {
  // put()'s store grows the global main loaded before the call, which
  // has to wake main again.
  const auto d = analyze(R"(
float box;
void put(void)
{
    box = nc->value;
}
int main(void)
{
    float out;
    float seen;
    int i;
    initShm();
    out = 0.0f;
    seen = 0.0f;
    for (i = 0; i < 4; i++) {
        out = box;
        put();
        seen = nc->value;
    }
    /*** SafeFlow Annotation assert(safe(out)); ***/
    sink(out + seen);
    return 0;
}
)",
                         inMode(GetParam()));
  expectFindings(*d, 2, {{"out", Kind::kData}},
                 GetParam() == Mode::kSummaries ? 2 : 3);
}

TEST_P(SparseSolver, NestedObjectGrowthAloneRevisitsAnEarlierLoad) {
  // As above, but nothing else in main's loop grows: only the object
  // put() grows wakes main, or the load of box is never revisited.
  const auto d = analyze(R"(
float box;
void put(void)
{
    box = nc->value;
}
int main(void)
{
    float out;
    int i;
    initShm();
    out = 0.0f;
    for (i = 0; i < 4; i++) {
        out = box;
        put();
    }
    /*** SafeFlow Annotation assert(safe(out)); ***/
    sink(out);
    return 0;
}
)",
                         inMode(GetParam()));
  expectFindings(*d, 1, {{"out", Kind::kData}},
                 GetParam() == Mode::kSummaries ? 2 : 3);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, SparseSolver,
    testing::Values(Mode::kSummaries, Mode::kCallStrings),
    [](const testing::TestParamInfo<Mode>& info) {
      return std::string(info.param == Mode::kSummaries ? "Summaries"
                                                        : "CallStrings");
    });

// ---------------------------------------------------------------------------
// The interprocedural schedule: a wake-up edge per test
// ---------------------------------------------------------------------------
//
// Both engines seed every function callees first and visit one again only
// when something it reads grew. Call strings solve a function only once a
// call has given it a context, so a callee's seeded visit does nothing.
// take() reads the global box that its sibling put() writes: box's growth
// has to wake take(), and take's grown return has to wake main. Neither
// calls the other, so only the object edge orders them, whichever is
// defined first. A callee whose argument taint grew is woken too.

const char* kTake = R"(
float take(void)
{
    return box;
}
)";

const char* kPut = R"(
void put(void)
{
    box = nc->value;
}
)";

const char* kPutThenTake = R"(
int main(void)
{
    float out;
    initShm();
    put();
    out = take();
    /*** SafeFlow Annotation assert(safe(out)); ***/
    sink(out);
    return 0;
}
)";

class Schedule : public testing::TestWithParam<Mode> {};

TEST_P(Schedule, StoreWakesASiblingReaderDefinedBeforeIt) {
  // take() is visited before put() grows box, and main before take's
  // return grows: each needs a second visit.
  const auto d = analyze(std::string("float box;\n") + kTake + kPut +
                             kPutThenTake,
                         inMode(GetParam()));
  expectFindings(*d, 1, {{"out", Kind::kData}},
                 5);
}

TEST_P(Schedule, StoreWakesASiblingReaderDefinedAfterIt) {
  const auto d = analyze(std::string("float box;\n") + kPut + kTake +
                             kPutThenTake,
                         inMode(GetParam()));
  // Seeded put(), take(), main: one visit each.
  expectFindings(*d, 1, {{"out", Kind::kData}},
                 GetParam() == Mode::kSummaries ? 3 : 4);
}

TEST_P(Schedule, GrownArgumentWakesTheCallee) {
  // keep() is visited before main hands it a tainted argument; its store
  // resolves `v` against that concrete argument taint only on a second
  // visit, and the grown box then wakes main again.
  const auto d = analyze(R"(
float box;
void keep(float v)
{
    box = v;
}
int main(void)
{
    float out;
    initShm();
    keep(nc->value);
    out = box;
    /*** SafeFlow Annotation assert(safe(out)); ***/
    sink(out);
    return 0;
}
)",
                         inMode(GetParam()));
  expectFindings(*d, 1, {{"out", Kind::kData}},
                 GetParam() == Mode::kSummaries ? 4 : 3);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, Schedule,
    testing::Values(Mode::kSummaries, Mode::kCallStrings),
    [](const testing::TestParamInfo<Mode>& info) {
      return std::string(info.param == Mode::kSummaries ? "Summaries"
                                                        : "CallStrings");
    });

TEST(SparseSolver, InstructionEvalsGrowLinearlyWithRotationLength) {
  // A value rotating through k accumulators needs k rounds. Re-running
  // whole passes makes that k passes over an O(k) body (a ratio near 4
  // when k doubles); the worklist touches O(1) instructions per round.
  const auto evals = [](int cycle) {
    SafeFlowDriver d;
    d.addSource("cycle.c", bench::accumulatorCycleProgram(1, cycle));
    d.analyze();
    return counter(d, "taint.instruction_evals");
  };
  const std::uint64_t at48 = evals(48);
  const std::uint64_t at96 = evals(96);
  ASSERT_GT(at48, 0u);
  EXPECT_LT(static_cast<double>(at96) / static_cast<double>(at48), 2.5)
      << at48 << " evaluations at k=48, " << at96 << " at k=96";
}

TEST(TaintWorkload, ProgramsKeepEveryCounter) {
  // How taint values are stored must not change the steps the solver
  // takes: every body analysis, evaluation, summary growth and context
  // clone is pinned on the three workload programs, in both engines.
  // Summary mode visits each function once here: nothing a second visit
  // would read grows.
  struct Expected {
    const char* name;
    std::string source;
    Mode mode;
    std::vector<std::uint64_t> counters;  // in kCounters order
  };
  const char* const kCounters[] = {
      "taint.body_analyses", "taint.instruction_evals",
      "taint.summaries_computed", "taint.context_clones"};
  const std::string scaling = bench::scalingProgram(2000);
  const std::string cycle = bench::accumulatorCycleProgram(12, 96);
  const std::string churn = bench::pointerChurnProgram(200, 32);
  const Expected runs[] = {
      {"scalingProgram(2000)", scaling, Mode::kSummaries,
       {2001, 94005, 4000, 0}},
      {"scalingProgram(2000)", scaling, Mode::kCallStrings,
       {2002, 98010, 4000, 2000}},
      {"accumulatorCycleProgram(12, 96)", cycle, Mode::kSummaries,
       {13, 15197, 36, 0}},
      {"accumulatorCycleProgram(12, 96)", cycle, Mode::kCallStrings,
       {14, 15226, 36, 12}},
      {"pointerChurnProgram(200, 32)", churn, Mode::kSummaries,
       {233, 11667, 232, 0}},
      {"pointerChurnProgram(200, 32)", churn, Mode::kCallStrings,
       {465, 17733, 232, 232}},
  };
  for (const Expected& e : runs) {
    SafeFlowDriver driver(inMode(e.mode));
    driver.addSource("workload.c", e.source);
    driver.analyze();
    ASSERT_FALSE(driver.hasFrontendErrors()) << e.name;
    const char* engine =
        e.mode == Mode::kSummaries ? " summaries " : " call strings ";
    for (std::size_t i = 0; i < e.counters.size(); ++i) {
      EXPECT_EQ(counter(driver, kCounters[i]), e.counters[i])
          << e.name << engine << kCounters[i];
    }
  }
}

TEST(TaintWorkload, CallStringsCostMoreThanSummariesAndGrowWithTheFan) {
  // The ablation §3.3 motivates: in monitorFanProgram(m, d) each of the d
  // helpers gets one call-string context per monitor, solved on the way
  // down the chain and again as the return grows back up, while summary
  // mode solves each function once.
  struct Size {
    int monitors, depth;
    std::uint64_t summaries, call_strings;
  };
  std::uint64_t previous = 0;
  for (const Size& size : {Size{2, 4, 7, 20}, Size{4, 8, 13, 70},
                           Size{8, 16, 25, 266}}) {
    const std::string fan = bench::monitorFanProgram(size.monitors, size.depth);
    std::uint64_t bodies[2] = {0, 0};
    for (const Mode mode : {Mode::kSummaries, Mode::kCallStrings}) {
      SafeFlowDriver driver(inMode(mode));
      driver.addSource("fan.c", fan);
      EXPECT_EQ(driver.analyze().dataErrorCount(),
                static_cast<std::size_t>(size.monitors));
      bodies[mode == Mode::kCallStrings] =
          counter(driver, "taint.body_analyses");
    }
    const std::string at = "monitorFanProgram(" +
                           std::to_string(size.monitors) + ", " +
                           std::to_string(size.depth) + ")";
    EXPECT_EQ(bodies[0], size.summaries) << at;
    EXPECT_EQ(bodies[1], size.call_strings) << at;
    EXPECT_GT(bodies[1], bodies[0]) << at;
    EXPECT_GT(bodies[1], previous) << at;
    previous = bodies[1];
  }
}

// ---------------------------------------------------------------------------
// TaintPool: hash-consed taint values
// ---------------------------------------------------------------------------

using analysis::TaintId;
using analysis::TaintPair;
using analysis::TaintPool;

class TaintPoolTest : public testing::Test {
 protected:
  TaintPoolTest() {
    for (int i = 0; i < 3; ++i) {
      loads_.push_back(std::make_unique<ir::Instruction>(
          ir::Opcode::kLoad, nullptr, ir::SourceLocation{},
          std::pmr::get_default_resource()));
    }
  }

  /// A pair whose data half holds `region` sourced by load `load`.
  [[nodiscard]] TaintPair dataFrom(int region, int load) const {
    TaintPair t;
    t.data.sources[region].insert(loads_[load].get());
    return t;
  }

  /// Interns a copy, leaving `t` for comparisons.
  TaintId intern(const TaintPair& t) { return pool_.intern(TaintPair(t)); }

  TaintPool pool_;
  /// Stand-in source loads: the pool compares their addresses only.
  std::vector<std::unique_ptr<ir::Instruction>> loads_;
};

TEST_F(TaintPoolTest, EqualContentsInternToEqualIds) {
  EXPECT_EQ(pool_.intern(TaintPair{}), TaintPool::kEmpty);
  EXPECT_TRUE(pool_.get(TaintPool::kEmpty).empty());

  const TaintId a = intern(dataFrom(1, 0));
  EXPECT_NE(a, TaintPool::kEmpty);
  EXPECT_EQ(intern(dataFrom(1, 0)), a);  // built separately, same contents
  EXPECT_NE(intern(dataFrom(1, 1)), a);  // another load
  EXPECT_NE(intern(dataFrom(2, 0)), a);  // another region
  TaintPair in_control;
  in_control.control = dataFrom(1, 0).data;
  EXPECT_NE(intern(in_control), a);  // the same taint in the other half
  EXPECT_EQ(pool_.get(a), dataFrom(1, 0));
}

TEST_F(TaintPoolTest, JoinIsIdempotentCommutativeAndMerges) {
  TaintPair x = dataFrom(1, 0);
  x.data.params.insert(0);
  TaintPair y = dataFrom(1, 1);
  y.control.sources[2].insert(loads_[2].get());
  y.control.params.insert(3);
  const TaintId a = intern(x);
  const TaintId b = intern(y);

  EXPECT_EQ(pool_.join(a, a), a);
  EXPECT_EQ(pool_.join(a, TaintPool::kEmpty), a);
  EXPECT_EQ(pool_.join(TaintPool::kEmpty, a), a);
  const TaintId ab = pool_.join(a, b);
  EXPECT_EQ(pool_.join(b, a), ab);
  EXPECT_EQ(pool_.join(ab, ab), ab);

  TaintPair merged = x;
  EXPECT_TRUE(merged.merge(y));
  EXPECT_EQ(pool_.get(ab), merged);
  EXPECT_EQ(intern(merged), ab);
  // A join that adds nothing returns the id it started from, which is
  // what makes `join(slot, x) != slot` the growth test merge() was.
  EXPECT_FALSE(merged.merge(x));
  EXPECT_EQ(pool_.join(ab, a), ab);
}

TEST_F(TaintPoolTest, ControlOfMovesBothHalvesIntoControl) {
  TaintPair t = dataFrom(1, 0);
  t.data.params.insert(1);
  t.control.sources[2].insert(loads_[1].get());
  t.control.params.insert(2);
  const TaintId id = intern(t);

  const TaintId leak = pool_.controlOf(id);
  const TaintPair& got = pool_.get(leak);
  EXPECT_TRUE(got.data.empty());
  TaintPair expected;
  expected.control = t.data;
  expected.control.merge(t.control);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(got.control.params, (std::set<unsigned>{1, 2}));
  EXPECT_EQ(pool_.controlOf(id), leak);  // memoized
  EXPECT_EQ(pool_.controlOf(leak), leak);
  EXPECT_EQ(pool_.controlOf(TaintPool::kEmpty), TaintPool::kEmpty);
}

TEST_F(TaintPoolTest, SymbolFreeFlagTracksParameterSymbols) {
  EXPECT_TRUE(pool_.symbolFree(TaintPool::kEmpty));
  EXPECT_TRUE(pool_.symbolFree(intern(dataFrom(1, 0))));
  TaintPair data_param = dataFrom(1, 0);
  data_param.data.params.insert(0);
  EXPECT_FALSE(pool_.symbolFree(intern(data_param)));
  TaintPair control_param;
  control_param.control.params.insert(4);
  const TaintId c = intern(control_param);
  EXPECT_FALSE(pool_.symbolFree(c));
  EXPECT_FALSE(pool_.symbolFree(pool_.join(intern(dataFrom(2, 1)), c)));
}

TEST_F(TaintPoolTest, ReferencesSurviveLaterInterning) {
  const TaintPair expected = dataFrom(1, 0);
  const TaintId id = intern(expected);
  const TaintPair& ref = pool_.get(id);
  TaintId last = id;
  for (unsigned i = 0; i < 1000; ++i) {
    TaintPair t = dataFrom(static_cast<int>(i % 7), static_cast<int>(i % 3));
    t.data.params.insert(i);
    last = pool_.intern(std::move(t));
  }
  EXPECT_EQ(last, id + 1000);  // every one of them was new
  EXPECT_EQ(&pool_.get(id), &ref);
  EXPECT_EQ(ref, expected);
}

}  // namespace
