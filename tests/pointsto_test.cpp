// Unit and end-to-end tests for the Andersen-style points-to solver:
// constraint generation, SCC cycle collapse, byte-offset field cells
// (constant pointer arithmetic, union overlap, out-of-bounds constants),
// budget degradation monotonicity, the function-qualified describe()
// names, and the pointerlab corpus goldens that pin the precision delta
// against the legacy alias engine. The subprocess tests spawn the real
// `safeflow` binary (SAFEFLOW_EXE) to check report stability across
// --isolate and warm cache runs under --alias=andersen.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/alias.h"
#include "analysis/pointsto.h"
#include "analysis/shm_regions.h"
#include "cfront/frontend.h"
#include "ir/callgraph.h"
#include "ir/lowering.h"
#include "ir/ssa.h"
#include "safeflow/driver.h"
#include "support/limits.h"

namespace {

using namespace safeflow;

std::string corpusDir() { return SAFEFLOW_CORPUS_DIR; }

struct Pipeline {
  std::unique_ptr<cfront::Frontend> fe;
  std::unique_ptr<ir::Module> module;
  std::unique_ptr<ir::CallGraph> callgraph;
  analysis::ShmRegionTable regions;
};

Pipeline run(const std::string& src) {
  Pipeline p;
  p.fe = std::make_unique<cfront::Frontend>();
  EXPECT_TRUE(p.fe->parseBuffer("unit.c", src))
      << p.fe->diagnostics().render(p.fe->sources());
  p.module = std::make_unique<ir::Module>(p.fe->types());
  ir::Lowering lowering(p.fe->unit(), *p.module, p.fe->diagnostics());
  EXPECT_TRUE(lowering.run());
  ir::promoteModuleToSsa(*p.module);
  p.regions = analysis::ShmRegionTable::build(*p.module,
                                              p.fe->diagnostics());
  p.callgraph = std::make_unique<ir::CallGraph>(*p.module);
  return p;
}

std::vector<const ir::Instruction*> instructionsOf(const ir::Function* fn,
                                                   ir::Opcode op) {
  std::vector<const ir::Instruction*> out;
  for (const auto& bb : fn->blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() == op) out.push_back(inst.get());
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Constraint generation and field-offset resolution
// ---------------------------------------------------------------------------

TEST(PointsTo, ConstantArithmeticResolvesAdjacentField) {
  auto p = run(R"(
struct Two { int a; int b; };
int readBoth(void)
{
    struct Two t;
    int *pa;
    int *pb;
    int *pq;
    pa = &t.a;
    pb = &t.b;
    pq = pa + 1;   /* one int past a is exactly b */
    *pb = 2;
    return *pq;
}
)");
  analysis::PointsToSolver solver(*p.module, p.regions, *p.callgraph,
                                  analysis::PointsToOptions{true}, nullptr);
  solver.solve();
  const ir::Function* fn = p.module->findFunction("readBoth");
  const auto geps = instructionsOf(fn, ir::Opcode::kFieldAddr);
  ASSERT_EQ(geps.size(), 2u);
  const auto idx = instructionsOf(fn, ir::Opcode::kIndexAddr);
  ASSERT_EQ(idx.size(), 1u);
  // pa + 1 lands on the b cell, not on a and not on the whole object.
  EXPECT_NE(solver.pointsTo(geps[0]), solver.pointsTo(idx[0]));
  EXPECT_EQ(solver.pointsTo(geps[1]), solver.pointsTo(idx[0]));
  const auto& cell = solver.pointsTo(idx[0]);
  ASSERT_EQ(cell.size(), 1u);
  EXPECT_EQ(solver.extentOf(*cell.begin()),
            (std::pair<std::int64_t, std::int64_t>{4, 4}));
}

TEST(PointsTo, OutOfBoundsConstantOffsetIsUnknown) {
  auto p = run(R"(
struct Two { int a; int b; };
int stray(void)
{
    struct Two t;
    int *pa;
    int *px;
    pa = &t.a;
    px = pa + 5;   /* byte 20 of an 8-byte record */
    return *px;
}
)");
  analysis::PointsToSolver solver(*p.module, p.regions, *p.callgraph,
                                  analysis::PointsToOptions{true}, nullptr);
  solver.solve();
  const ir::Function* fn = p.module->findFunction("stray");
  const auto idx = instructionsOf(fn, ir::Opcode::kIndexAddr);
  ASSERT_EQ(idx.size(), 1u);
  const auto& pts = solver.pointsTo(idx[0]);
  ASSERT_FALSE(pts.empty());
  bool any_unknown = false;
  for (auto o : pts) any_unknown |= solver.isUnknown(o);
  EXPECT_TRUE(any_unknown);
}

TEST(PointsTo, UnionMembersOverlap) {
  auto p = run(R"(
union Pun { int i; double d; };
double launder(int x)
{
    union Pun u;
    u.i = x;
    return u.d;
}
)");
  analysis::PointsToSolver solver(*p.module, p.regions, *p.callgraph,
                                  analysis::PointsToOptions{true}, nullptr);
  solver.solve();
  const ir::Function* fn = p.module->findFunction("launder");
  const auto geps = instructionsOf(fn, ir::Opcode::kFieldAddr);
  ASSERT_EQ(geps.size(), 2u);
  // The 4-byte int view and the 8-byte double view are distinct cells,
  // but each exposed set names the overlapping sibling too, so stores
  // through one member are visible through the other.
  const auto& pi = solver.pointsTo(geps[0]);
  const auto& pd = solver.pointsTo(geps[1]);
  EXPECT_EQ(pi, pd);
  EXPECT_EQ(pi.size(), 2u);
}

TEST(PointsTo, PointerRoundTripsThroughUnionWord) {
  auto p = run(R"(
union Port { int *typed; void *raw; };
int deref(void)
{
    union Port port;
    int target;
    int *back;
    port.raw = (void *) &target;
    back = port.typed;
    return *back;
}
)");
  analysis::PointsToSolver solver(*p.module, p.regions, *p.callgraph,
                                  analysis::PointsToOptions{true}, nullptr);
  solver.solve();
  const ir::Function* fn = p.module->findFunction("deref");
  const auto allocas = instructionsOf(fn, ir::Opcode::kAlloca);
  const ir::Instruction* target = nullptr;
  for (const auto* a : allocas) {
    if (a->name() == "target") target = a;
  }
  ASSERT_NE(target, nullptr);
  const auto& ta = solver.pointsTo(target);
  ASSERT_EQ(ta.size(), 1u);
  const auto loads = instructionsOf(fn, ir::Opcode::kLoad);
  // The load of port.typed must resolve back to the target alloca.
  bool resolved = false;
  for (const auto* ld : loads) {
    if (!ld->type()->isPointer()) continue;
    if (solver.pointsTo(ld).count(*ta.begin()) != 0) resolved = true;
  }
  EXPECT_TRUE(resolved);
}

TEST(PointsTo, CallChainResolvesReturnedPointer) {
  auto p = run(R"(
struct Two { int a; int b; };
int *inner(struct Two *t) { return &t->a + 1; }
int *outer(struct Two *t) { return inner(t); }
int readIt(void)
{
    struct Two t;
    int *pb;
    pb = outer(&t);
    return *pb;
}
)");
  analysis::PointsToSolver solver(*p.module, p.regions, *p.callgraph,
                                  analysis::PointsToOptions{true}, nullptr);
  solver.solve();
  const ir::Function* fn = p.module->findFunction("readIt");
  const auto calls = instructionsOf(fn, ir::Opcode::kCall);
  ASSERT_EQ(calls.size(), 1u);
  const auto& pts = solver.pointsTo(calls[0]);
  ASSERT_EQ(pts.size(), 1u);
  // Resolved through two call boundaries to the b cell at byte 4.
  EXPECT_EQ(solver.kindOf(*pts.begin()),
            analysis::PointsToSolver::ObjKind::kField);
  EXPECT_EQ(solver.extentOf(*pts.begin()),
            (std::pair<std::int64_t, std::int64_t>{4, 4}));
}

// ---------------------------------------------------------------------------
// Cycle collapse
// ---------------------------------------------------------------------------

TEST(PointsTo, PhiCycleCollapsesAndStaysPrecise) {
  // A two-variable pointer swap loop: the phis form a copy cycle the
  // condensation must collapse, after which both names see exactly the
  // two allocas.
  SafeFlowDriver driver;
  driver.addSource("cycle.c", R"(
int spin(int n)
{
    int x;
    int y;
    int *p;
    int *q;
    int *t;
    int i;
    x = 1;
    y = 2;
    p = &x;
    q = &y;
    for (i = 0; i < n; i++) {
        t = p;
        p = q;
        q = t;
    }
    return *p + *q;
}
int main(void) { return spin(3); }
)");
  driver.analyze();
  ASSERT_FALSE(driver.hasFrontendErrors())
      << driver.diagnostics().render(driver.sources());
  std::uint64_t collapsed = 0;
  std::uint64_t constraints = 0;
  for (const auto& [name, value] : driver.stats().counters) {
    if (name == "pointsto.scc_collapsed") collapsed = value;
    if (name == "pointsto.constraints") constraints = value;
  }
  EXPECT_GT(collapsed, 0u);
  EXPECT_GT(constraints, 0u);
}

// ---------------------------------------------------------------------------
// Budget degradation
// ---------------------------------------------------------------------------

TEST(PointsTo, BudgetExhaustionWidensToUnknown) {
  const char* src = R"(
struct Two { int a; int b; };
int readBoth(void)
{
    struct Two t;
    int *pa;
    int *pb;
    pa = &t.a;
    pb = &t.b;
    *pa = 1;
    *pb = 2;
    return *pa + *pb;
}
)";
  auto p = run(src);

  analysis::PointsToSolver full(*p.module, p.regions, *p.callgraph,
                                analysis::PointsToOptions{true}, nullptr);
  full.solve();
  EXPECT_FALSE(full.degraded());

  support::BudgetLimits limits;
  limits.phase_steps = 3;  // trips mid-constraint-generation
  support::AnalysisBudget budget(limits);
  budget.start();
  analysis::PointsToSolver starved(*p.module, p.regions, *p.callgraph,
                                   analysis::PointsToOptions{true}, &budget);
  starved.solve();
  EXPECT_TRUE(starved.degraded());

  // Monotone degradation: nothing tightens. Every surviving points-to
  // set names unknown in addition to whatever it resolved, so consumers
  // treat partially-solved pointers as unresolved.
  ASSERT_FALSE(starved.allPointsTo().empty());
  for (const auto& [v, pts] : starved.allPointsTo()) {
    bool any_unknown = false;
    for (auto o : pts) any_unknown |= starved.isUnknown(o);
    EXPECT_TRUE(any_unknown) << "tight set survived budget exhaustion";
  }
}

// ---------------------------------------------------------------------------
// describe() injectivity (function-qualified alloca names)
// ---------------------------------------------------------------------------

TEST(Alias, DescribeQualifiesAllocasWithFunction) {
  // The stores through p keep each `slot` address-taken, so the allocas
  // survive mem2reg and get alias objects.
  const char* src = R"(
int first(void)  { int slot; int *p; p = &slot; *p = 1; return *p; }
int second(void) { int slot; int *p; p = &slot; *p = 2; return *p; }
)";
  for (auto engine : {analysis::AliasOptions::Engine::kAndersen,
                      analysis::AliasOptions::Engine::kLegacy}) {
    auto p = run(src);
    analysis::AliasOptions opts;
    opts.engine = engine;
    analysis::AliasAnalysis alias(*p.module, p.regions, *p.callgraph, opts);
    alias.run();
    std::vector<std::string> names;
    for (const char* fn_name : {"first", "second"}) {
      const ir::Function* fn = p.module->findFunction(fn_name);
      const auto allocas = instructionsOf(fn, ir::Opcode::kAlloca);
      ASSERT_EQ(allocas.size(), 1u);
      const auto& pts = alias.pointsTo(allocas[0]);
      ASSERT_EQ(pts.size(), 1u);
      names.push_back(alias.describe(*pts.begin()));
    }
    // Same local name in two functions must not collide.
    EXPECT_NE(names[0], names[1]);
    EXPECT_EQ(names[0], "first::slot");
    EXPECT_EQ(names[1], "second::slot");
  }
}

// ---------------------------------------------------------------------------
// Pointerlab corpus: goldens and the precision delta vs legacy
// ---------------------------------------------------------------------------

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult runCommand(const std::string& cmd) {
  RunResult r;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 512> buf{};
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) {
    r.output += buf.data();
  }
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string pointerlabFiles() {
  std::ostringstream os;
  for (const char* f :
       {"chain.c", "comm.c", "confuse.c", "main.c", "pun.c"}) {
    os << " " << corpusDir() << "/pointerlab/core/" << f;
  }
  return os.str();
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Replaces the absolute corpus prefix with the repo-relative one the
// checked-in goldens use (CI regenerates them from the repo root).
std::string normalizePaths(std::string text) {
  const std::string abs = corpusDir();
  std::size_t pos = 0;
  while ((pos = text.find(abs, pos)) != std::string::npos) {
    text.replace(pos, abs.size(), "corpus");
    pos += 6;
  }
  return text;
}

TEST(PointerlabCorpus, AndersenMatchesCheckedInGolden) {
  const RunResult r = runCommand(std::string(SAFEFLOW_EXE) +
                                 " --alias=andersen" + pointerlabFiles());
  EXPECT_EQ(r.exit_code, 1) << r.output;  // the pun defect is a data error
  EXPECT_EQ(normalizePaths(r.output),
            readFile(corpusDir() + "/pointerlab/expected_andersen.txt"));
}

TEST(PointerlabCorpus, LegacyMatchesCheckedInGolden) {
  const RunResult r = runCommand(std::string(SAFEFLOW_EXE) +
                                 " --alias=legacy" + pointerlabFiles());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(normalizePaths(r.output),
            readFile(corpusDir() + "/pointerlab/expected_legacy.txt"));
}

TEST(PointerlabCorpus, PrecisionDeltaVersusLegacy) {
  const RunResult andersen = runCommand(std::string(SAFEFLOW_EXE) +
                                        " --alias=andersen" +
                                        pointerlabFiles());
  const RunResult legacy = runCommand(std::string(SAFEFLOW_EXE) +
                                      " --alias=legacy" + pointerlabFiles());
  // Andersen resolves pickCmd's pointer arithmetic to the command word:
  // the spurious flow into 'output' disappears, and the genuine union
  // pun into 'wobble' is caught instead. Legacy has it exactly reversed.
  EXPECT_EQ(andersen.output.find("critical value 'output'"),
            std::string::npos)
      << andersen.output;
  EXPECT_NE(andersen.output.find("critical value 'wobble'"),
            std::string::npos)
      << andersen.output;
  EXPECT_NE(legacy.output.find("critical value 'output'"), std::string::npos)
      << legacy.output;
  EXPECT_EQ(legacy.output.find("critical value 'wobble'"), std::string::npos)
      << legacy.output;
  // The seeded cross-region confusion defect is caught in BOTH engines.
  for (const auto* out : {&andersen.output, &legacy.output}) {
    EXPECT_NE(out->find("[shm-bounds-const]"), std::string::npos) << *out;
    EXPECT_NE(out->find("always outside its 8 elements"), std::string::npos)
        << *out;
  }
}

TEST(PointerlabCorpus, ReportByteIdenticalAcrossIsolateAndWarmCache) {
  char tmpl[] = "/tmp/sf_pointsto_cache_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string cache = tmpl;
  const std::string exe = std::string(SAFEFLOW_EXE) + " --alias=andersen";
  // Every entry point analyzes the same whole program, so the report
  // never varies with isolation or cache temperature.
  const RunResult local = runCommand(exe + pointerlabFiles());
  EXPECT_NE(local.exit_code, 2) << local.output;
  const std::string isolated = exe + " --isolate --cache-dir " + cache;
  const RunResult cold = runCommand(isolated + pointerlabFiles());
  const RunResult warm = runCommand(isolated + pointerlabFiles());
  EXPECT_EQ(cold.output, local.output);
  EXPECT_EQ(warm.output, local.output);
  EXPECT_EQ(warm.exit_code, local.exit_code);
  runCommand("rm -rf " + cache);
}

std::uint64_t statsCounter(const std::string& stats_path,
                           const std::string& name) {
  // Cheap extraction of `"name": <n>` from the stats JSON.
  const std::string text = readFile(stats_path);
  const std::string key = "\"" + name + "\":";
  const std::size_t pos = text.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + key.size(), nullptr, 10);
}

TEST(PointerlabCorpus, AliasFlagChangesCacheKey) {
  char tmpl[] = "/tmp/sf_pointsto_key_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string stats = dir + "/stats.json";
  const std::string base = std::string(SAFEFLOW_EXE) +
                           " --isolate --cache-dir " + dir +
                           "/cache --stats-json " + stats;
  const std::string files = pointerlabFiles();
  const RunResult andersen = runCommand(base + " --alias=andersen" + files);
  EXPECT_NE(andersen.exit_code, 2) << andersen.output;
  // Switching engines must never replay the other engine's cache: the
  // legacy run misses, then a repeat legacy run hits.
  const RunResult legacy = runCommand(base + " --alias=legacy" + files);
  EXPECT_NE(legacy.exit_code, 2) << legacy.output;
  EXPECT_EQ(statsCounter(stats, "cache.hits"), 0u);
  EXPECT_EQ(statsCounter(stats, "cache.misses"), 1u);
  const RunResult again = runCommand(base + " --alias=legacy" + files);
  EXPECT_NE(again.exit_code, 2) << again.output;
  EXPECT_EQ(statsCounter(stats, "cache.hits"), 1u);
  runCommand("rm -rf " + dir);
}

}  // namespace
