// Unit and end-to-end tests for the Andersen-style points-to analysis
// (AliasAnalysis): the ObjSet sparse bitset its sets are stored in,
// constraint generation, SCC cycle collapse, byte-offset field cells
// (constant pointer arithmetic, union overlap, out-of-bounds constants)
// and their field-insensitive ablation, budget degradation monotonicity
// (a trip in generation and one in propagation), the function-qualified
// describe() names, the solver's exact work on the benchmark workload
// programs and its linear growth on churn, and the pointerlab corpus
// golden that pins what the analysis finds there. The subprocess tests
// spawn the real `safeflow` binary (SAFEFLOW_EXE) to check the golden
// and report stability across --isolate and warm cache runs.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/alias.h"
#include "bench/synthetic.h"
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
      if (inst->opcode() == op) out.push_back(inst);
    }
  }
  return out;
}

std::vector<analysis::ObjId> members(const analysis::ObjSet& set) {
  return {set.begin(), set.end()};
}

// ---------------------------------------------------------------------------
// ObjSet: the sparse bitset points-to sets are stored in
// ---------------------------------------------------------------------------

TEST(ObjSet, IteratesAscendingAcrossWords) {
  analysis::ObjSet set;
  for (analysis::ObjId id : {1000, 65, 0, 64, 63}) {
    EXPECT_TRUE(set.insert(id)) << id;
  }
  EXPECT_EQ(members(set), (std::vector<analysis::ObjId>{0, 63, 64, 65, 1000}));
  EXPECT_EQ(set.size(), 5u);
  EXPECT_TRUE(set.contains(64));
  EXPECT_TRUE(set.contains(1000));
  EXPECT_FALSE(set.contains(1));
  EXPECT_FALSE(set.contains(999));
}

TEST(ObjSet, InsertReportsDuplicates) {
  analysis::ObjSet set;
  EXPECT_TRUE(set.insert(7));
  EXPECT_FALSE(set.insert(7));
  EXPECT_TRUE(set.insert(71));
  EXPECT_FALSE(set.insert(71));
  EXPECT_EQ(set.size(), 2u);
}

TEST(ObjSet, UnionReportsExactlyTheNewBitsInExistingWords) {
  // Every word of src already has a slot in dst: the union ORs in place.
  analysis::ObjSet dst;
  analysis::ObjSet src;
  for (analysis::ObjId id : {1, 2, 70}) dst.insert(id);
  for (analysis::ObjId id : {2, 3, 70, 71}) src.insert(id);
  analysis::ObjSet added;
  added.insert(1);  // already pending: stays, and is not reported again
  EXPECT_TRUE(dst.unionWith(src, added));
  EXPECT_EQ(members(dst), (std::vector<analysis::ObjId>{1, 2, 3, 70, 71}));
  EXPECT_EQ(members(added), (std::vector<analysis::ObjId>{1, 3, 71}));
  // A second union brings nothing new and leaves `added` alone.
  analysis::ObjSet again;
  EXPECT_FALSE(dst.unionWith(src, again));
  EXPECT_TRUE(again.empty());
}

TEST(ObjSet, UnionReportsExactlyTheNewBitsInNewWords) {
  // src has words dst has never held, below, between and above its own.
  analysis::ObjSet dst;
  analysis::ObjSet src;
  for (analysis::ObjId id : {64, 200}) dst.insert(id);
  for (analysis::ObjId id : {5, 64, 65, 130, 1000}) src.insert(id);
  analysis::ObjSet added;
  added.insert(300);
  EXPECT_TRUE(dst.unionWith(src, added));
  EXPECT_EQ(members(dst),
            (std::vector<analysis::ObjId>{5, 64, 65, 130, 200, 1000}));
  EXPECT_EQ(members(added),
            (std::vector<analysis::ObjId>{5, 65, 130, 300, 1000}));
  // The plain union agrees with the reporting one.
  analysis::ObjSet plain;
  for (analysis::ObjId id : {64, 200}) plain.insert(id);
  EXPECT_TRUE(plain.unionWith(src));
  EXPECT_EQ(plain, dst);
  EXPECT_FALSE(plain.unionWith(src));
}

TEST(ObjSet, EqualityComparesContents) {
  analysis::ObjSet a;
  analysis::ObjSet b;
  EXPECT_EQ(a, b);
  for (analysis::ObjId id : {3, 130, 64}) a.insert(id);
  for (analysis::ObjId id : {64, 3, 130}) b.insert(id);
  EXPECT_EQ(a, b);
  b.insert(4);
  EXPECT_NE(a, b);
  analysis::ObjSet c;
  c.insert(3);
  EXPECT_NE(a, c);
}

TEST(ObjSet, IntersectsOnlyOnASharedMember) {
  analysis::ObjSet a;
  analysis::ObjSet b;
  for (analysis::ObjId id : {1, 64, 130, 1000}) a.insert(id);
  for (analysis::ObjId id : {2, 65, 130, 999, 2000}) b.insert(id);
  EXPECT_TRUE(a.intersects(b));
  EXPECT_TRUE(b.intersects(a));
  EXPECT_TRUE(a.intersects(a));
  // Words with the same index but no common bit do not intersect.
  analysis::ObjSet c;
  for (analysis::ObjId id : {0, 66, 1001}) c.insert(id);
  EXPECT_FALSE(a.intersects(c));
  EXPECT_FALSE(c.intersects(a));
  const analysis::ObjSet empty;
  EXPECT_FALSE(a.intersects(empty));
  EXPECT_FALSE(empty.intersects(a));
}

TEST(ObjSet, IntersectionKeepsTheSharedMembersOnly) {
  analysis::ObjSet a;
  analysis::ObjSet b;
  for (analysis::ObjId id : {1, 3, 64, 130, 1000}) a.insert(id);
  for (analysis::ObjId id : {3, 65, 130, 131, 999, 2000}) b.insert(id);
  EXPECT_EQ(members(a.intersection(b)),
            (std::vector<analysis::ObjId>{3, 130}));
  EXPECT_EQ(a.intersection(b), b.intersection(a));
  EXPECT_EQ(a.intersection(a), a);
  // A word whose bits all drop out is not kept: the result equals the
  // empty set.
  analysis::ObjSet c;
  for (analysis::ObjId id : {0, 66, 1001}) c.insert(id);
  EXPECT_EQ(a.intersection(c), analysis::ObjSet{});
  EXPECT_TRUE(a.intersection(analysis::ObjSet{}).empty());
}

TEST(ObjSet, EmptySetIteratesNothing) {
  const analysis::ObjSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.begin(), set.end());
  EXPECT_TRUE(members(set).empty());
  EXPECT_FALSE(set.contains(0));
}

// ---------------------------------------------------------------------------
// Constraint generation and field-offset resolution
// ---------------------------------------------------------------------------

// Three views of one two-int record: &t.a, &t.b, and &t.a + 1.
const char* kAdjacentFields = R"(
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
)";

TEST(PointsTo, ConstantArithmeticResolvesAdjacentField) {
  auto p = run(kAdjacentFields);
  analysis::AliasAnalysis alias(*p.module, p.regions, *p.callgraph);
  alias.run();
  const ir::Function* fn = p.module->findFunction("readBoth");
  const auto geps = instructionsOf(fn, ir::Opcode::kFieldAddr);
  ASSERT_EQ(geps.size(), 2u);
  const auto idx = instructionsOf(fn, ir::Opcode::kIndexAddr);
  ASSERT_EQ(idx.size(), 1u);
  // pa + 1 lands on the b cell, not on a and not on the whole object.
  EXPECT_NE(alias.pointsTo(geps[0]), alias.pointsTo(idx[0]));
  EXPECT_EQ(alias.pointsTo(geps[1]), alias.pointsTo(idx[0]));
  const auto& cell = alias.pointsTo(idx[0]);
  ASSERT_EQ(cell.size(), 1u);
  EXPECT_EQ(alias.extentOf(*cell.begin()),
            (std::pair<std::int64_t, std::int64_t>{4, 4}));
}

TEST(PointsTo, FieldInsensitiveKeepsEveryFieldOnTheRoot) {
  // The ablation setting: field addresses and constant arithmetic stay
  // on the object they start from, so all three views are the root.
  auto p = run(kAdjacentFields);
  analysis::AliasAnalysis alias(*p.module, p.regions, *p.callgraph,
                                analysis::AliasOptions{false});
  alias.run();
  const ir::Function* fn = p.module->findFunction("readBoth");
  const auto geps = instructionsOf(fn, ir::Opcode::kFieldAddr);
  ASSERT_EQ(geps.size(), 2u);
  const auto idx = instructionsOf(fn, ir::Opcode::kIndexAddr);
  ASSERT_EQ(idx.size(), 1u);
  for (const ir::Instruction* view : {geps[0], geps[1], idx[0]}) {
    const auto& pts = alias.pointsTo(view);
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_EQ(alias.kindOf(*pts.begin()),
              analysis::AliasAnalysis::ObjKind::kAlloca);
    EXPECT_EQ(alias.describe(*pts.begin()), "readBoth::t");
    EXPECT_EQ(alias.extentOf(*pts.begin()),
              (std::pair<std::int64_t, std::int64_t>{0, 8}));
  }
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
  analysis::AliasAnalysis alias(*p.module, p.regions, *p.callgraph);
  alias.run();
  const ir::Function* fn = p.module->findFunction("stray");
  const auto idx = instructionsOf(fn, ir::Opcode::kIndexAddr);
  ASSERT_EQ(idx.size(), 1u);
  const auto& pts = alias.pointsTo(idx[0]);
  ASSERT_FALSE(pts.empty());
  bool any_unknown = false;
  for (auto o : pts) any_unknown |= alias.isUnknown(o);
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
  analysis::AliasAnalysis alias(*p.module, p.regions, *p.callgraph);
  alias.run();
  const ir::Function* fn = p.module->findFunction("launder");
  const auto geps = instructionsOf(fn, ir::Opcode::kFieldAddr);
  ASSERT_EQ(geps.size(), 2u);
  // The 4-byte int view and the 8-byte double view are distinct cells,
  // but each exposed set names the overlapping sibling too, so stores
  // through one member are visible through the other.
  const auto& pi = alias.pointsTo(geps[0]);
  const auto& pd = alias.pointsTo(geps[1]);
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
  analysis::AliasAnalysis alias(*p.module, p.regions, *p.callgraph);
  alias.run();
  const ir::Function* fn = p.module->findFunction("deref");
  const auto allocas = instructionsOf(fn, ir::Opcode::kAlloca);
  const ir::Instruction* target = nullptr;
  for (const auto* a : allocas) {
    if (a->name() == "target") target = a;
  }
  ASSERT_NE(target, nullptr);
  const auto& ta = alias.pointsTo(target);
  ASSERT_EQ(ta.size(), 1u);
  const auto loads = instructionsOf(fn, ir::Opcode::kLoad);
  // The load of port.typed must resolve back to the target alloca.
  bool resolved = false;
  for (const auto* ld : loads) {
    if (!ld->type()->isPointer()) continue;
    if (alias.pointsTo(ld).contains(*ta.begin())) resolved = true;
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
  analysis::AliasAnalysis alias(*p.module, p.regions, *p.callgraph);
  alias.run();
  const ir::Function* fn = p.module->findFunction("readIt");
  const auto calls = instructionsOf(fn, ir::Opcode::kCall);
  ASSERT_EQ(calls.size(), 1u);
  const auto& pts = alias.pointsTo(calls[0]);
  ASSERT_EQ(pts.size(), 1u);
  // Resolved through two call boundaries to the b cell at byte 4.
  EXPECT_EQ(alias.kindOf(*pts.begin()),
            analysis::AliasAnalysis::ObjKind::kField);
  EXPECT_EQ(alias.extentOf(*pts.begin()),
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

  analysis::AliasAnalysis full(*p.module, p.regions, *p.callgraph);
  full.run();
  EXPECT_FALSE(full.degraded());

  support::BudgetLimits limits;
  limits.phase_steps = 3;  // trips mid-constraint-generation
  support::AnalysisBudget budget(limits);
  budget.start();
  analysis::AliasAnalysis starved(*p.module, p.regions, *p.callgraph,
                                  analysis::AliasOptions{}, &budget);
  starved.run();
  EXPECT_TRUE(starved.degraded());

  // Monotone degradation: nothing tightens. Every surviving points-to
  // set names unknown in addition to whatever it resolved, so consumers
  // treat partially-solved pointers as unresolved.
  std::vector<const ir::Value*> values;
  for (const auto& fn : p.module->functions()) {
    for (const auto& arg : fn->args()) values.push_back(arg);
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        values.push_back(inst);
        for (const ir::Value* op : inst->operands()) values.push_back(op);
      }
    }
  }
  std::size_t surviving = 0;
  for (const ir::Value* v : values) {
    const auto& pts = starved.pointsTo(v);
    if (pts.empty()) continue;
    ++surviving;
    bool any_unknown = false;
    for (auto o : pts) any_unknown |= starved.isUnknown(o);
    EXPECT_TRUE(any_unknown) << "tight set survived budget exhaustion";
  }
  EXPECT_GT(surviving, 0u);
}

// The budget trips during propagation, after every constraint exists.
// A pointer the cut-short solve has not reached yet must not come back
// empty ("no memory effect", tighter than the full solve): every pointer
// the full solve resolves names unknown, and every concrete object it
// names is one the full solve names too.
TEST(PointsTo, BudgetTripMidPropagationWidensEveryPointer) {
  auto p = run(bench::pointerChurnProgram(20, 4));
  analysis::AliasAnalysis full(*p.module, p.regions, *p.callgraph);
  full.run();
  ASSERT_FALSE(full.degraded());

  // Generation takes one budget step per instruction of a defined
  // function, the solve one per worklist pop.
  std::uint64_t instructions = 0;
  std::set<const ir::Value*> pointers;
  auto consider = [&](const ir::Value* v) {
    if (v->type() != nullptr && v->type()->isPointer() &&
        !full.pointsTo(v).empty()) {
      pointers.insert(v);
    }
  };
  for (const auto& fn : p.module->functions()) {
    if (!fn->isDefined()) continue;
    for (const auto& arg : fn->args()) consider(arg);
    for (const auto& bb : fn->blocks()) {
      for (const auto& inst : bb->instructions()) {
        ++instructions;
        consider(inst);
        for (const ir::Value* op : inst->operands()) consider(op);
      }
    }
  }
  ASSERT_FALSE(pointers.empty());

  for (const std::uint64_t pops : {5, 20, 60, 150}) {
    support::BudgetLimits limits;
    limits.phase_steps = instructions + pops;
    support::AnalysisBudget budget(limits);
    budget.start();
    analysis::AliasAnalysis starved(*p.module, p.regions, *p.callgraph,
                                    analysis::AliasOptions{}, &budget);
    starved.run();
    ASSERT_TRUE(starved.degraded()) << pops;
    std::size_t unwidened = 0;
    for (const ir::Value* v : pointers) {
      // Object ids depend on the order cells were made: compare names.
      std::set<std::string> whole;
      for (analysis::ObjId o : full.pointsTo(v)) {
        whole.insert(full.describe(o));
      }
      bool any_unknown = false;
      for (analysis::ObjId o : starved.pointsTo(v)) {
        if (starved.isUnknown(o)) {
          any_unknown = true;
        } else {
          EXPECT_EQ(whole.count(starved.describe(o)), 1u)
              << pops << ": " << starved.describe(o);
        }
      }
      if (!any_unknown) ++unwidened;
    }
    EXPECT_EQ(unwidened, 0u) << "after " << pops << " pops, of "
                             << pointers.size() << " pointers";
  }
}

// ---------------------------------------------------------------------------
// Exact solver work on the benchmark workload programs
// ---------------------------------------------------------------------------

// The counts are pinned from the solver that kept its sets in search
// trees and popped the smallest node id first. The worklist now pops the
// least recently fired node first: only the churn program's iteration
// count moved (95,080 at that order); every other count repeats exactly.
TEST(PointsTo, WorkloadProgramsKeepEveryCounter) {
  struct Expected {
    const char* name;
    std::string source;
    std::vector<std::uint64_t> counters;  // in kCounters order
    double objects;
  };
  const char* const kCounters[] = {
      "pointsto.constraints",          "pointsto.scc_collapsed",
      "pointsto.worklist_iterations",  "pointsto.field_cells",
      "alias.points_to_edges",         "alias.resolved_pointers",
      "alias.shm_pointers_resolved",   "alias.field_precise_pointers"};
  const Expected programs[] = {
      {"pointerChurnProgram(200, 32)", bench::pointerChurnProgram(200, 32),
       {4678, 200, 3743, 800, 348016, 2865, 4, 1600}, 1205},
      {"scalingProgram(2000)", bench::scalingProgram(2000),
       {24016, 0, 17, 0, 16, 2, 4, 0}, 5},
      {"accumulatorCycleProgram(12, 96)",
       bench::accumulatorCycleProgram(12, 96),
       {4696, 0, 69, 6, 92, 6, 36, 12}, 19},
  };
  for (const Expected& e : programs) {
    SafeFlowDriver driver;
    driver.addSource("workload.c", e.source);
    driver.analyze();
    ASSERT_FALSE(driver.hasFrontendErrors()) << e.name;
    const std::map<std::string, std::uint64_t> counters(
        driver.stats().counters.begin(), driver.stats().counters.end());
    const std::map<std::string, double> gauges(
        driver.stats().gauges.begin(), driver.stats().gauges.end());
    for (std::size_t i = 0; i < e.counters.size(); ++i) {
      const auto it = counters.find(kCounters[i]);
      ASSERT_NE(it, counters.end()) << e.name << " " << kCounters[i];
      EXPECT_EQ(it->second, e.counters[i]) << e.name << " " << kCounters[i];
    }
    const auto objects = gauges.find("alias.objects");
    ASSERT_NE(objects, gauges.end()) << e.name;
    EXPECT_EQ(objects->second, e.objects) << e.name;
  }
}

// Every churn function routes its pointer through one shared hop chain.
// The solve stays linear in program size when the callers' deltas cross
// that chain together: at most one worklist pop per constraint, at every
// size (smallest id first took 5.4, 10.4 and 20.3 per constraint here).
TEST(PointsTo, ChurnSolveStaysLinearInProgramSize) {
  for (const auto& [functions, depth] :
       {std::pair{50, 8}, std::pair{100, 16}, std::pair{200, 32}}) {
    SafeFlowDriver driver;
    driver.addSource("churn.c", bench::pointerChurnProgram(functions, depth));
    driver.analyze();
    ASSERT_FALSE(driver.hasFrontendErrors());
    const std::map<std::string, std::uint64_t> counters(
        driver.stats().counters.begin(), driver.stats().counters.end());
    const std::uint64_t constraints = counters.at("pointsto.constraints");
    EXPECT_GT(constraints, 0u);
    EXPECT_LE(counters.at("pointsto.worklist_iterations"), constraints)
        << "pointerChurnProgram(" << functions << ", " << depth << ")";
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
  auto p = run(src);
  analysis::AliasAnalysis alias(*p.module, p.regions, *p.callgraph);
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

// ---------------------------------------------------------------------------
// Pointerlab corpus: the report golden and report stability
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
  const RunResult r =
      runCommand(std::string(SAFEFLOW_EXE) + pointerlabFiles());
  EXPECT_EQ(r.exit_code, 1) << r.output;  // the pun defect is a data error
  EXPECT_EQ(normalizePaths(r.output),
            readFile(corpusDir() + "/pointerlab/expected_andersen.txt"));
}

TEST(PointerlabCorpus, ReportByteIdenticalAcrossIsolateAndWarmCache) {
  char tmpl[] = "/tmp/sf_pointsto_cache_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string cache = tmpl;
  const std::string exe = SAFEFLOW_EXE;
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

}  // namespace
