// Unit tests for the analysis internals: the shared-memory region table,
// phase-1 pointer propagation (region sets and byte-offset intervals),
// the alias analysis, control dependence, and report rendering (including
// the value-flow DOT graph).
#include <gtest/gtest.h>

#include <memory>

#include "analysis/alias.h"
#include "analysis/shm_propagation.h"
#include "analysis/shm_regions.h"
#include "cfront/frontend.h"
#include "ir/callgraph.h"
#include "ir/cfg.h"
#include "ir/lowering.h"
#include "ir/ssa.h"
#include "safeflow/driver.h"

namespace {

using namespace safeflow;

struct Pipeline {
  std::unique_ptr<cfront::Frontend> fe;
  std::unique_ptr<ir::Module> module;
  std::unique_ptr<ir::CallGraph> callgraph;
  analysis::ShmRegionTable regions;
  std::unique_ptr<analysis::ShmPointerAnalysis> shm;
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
  p.shm = std::make_unique<analysis::ShmPointerAnalysis>(
      *p.module, p.regions, *p.callgraph);
  p.shm->run();
  return p;
}

const char* kTwoRegions = R"(
typedef struct Pack { float a; float b; int c; } Pack;
Pack *alpha;
Pack *beta;
extern void *shmat(int id, void *a, int f);
extern int shmget(int k, int s, int f);
/*** SafeFlow Annotation shminit ***/
void init(void)
{
    char *cur;
    cur = (char *) shmat(shmget(1, 2 * sizeof(Pack), 0), 0, 0);
    alpha = (Pack *) cur;
    cur = cur + sizeof(Pack);
    beta = (Pack *) cur;
    /*** SafeFlow Annotation assume(shmvar(alpha, sizeof(Pack))) ***/
    /*** SafeFlow Annotation assume(shmvar(beta, sizeof(Pack))) ***/
    /*** SafeFlow Annotation assume(noncore(beta)) ***/
}
)";

// ---------------------------------------------------------------------------
// ShmRegionTable
// ---------------------------------------------------------------------------

TEST(ShmRegionTable, RegionsAndClassification) {
  auto p = run(std::string(kTwoRegions) +
               "int main(void) { init(); return 0; }");
  ASSERT_EQ(p.regions.regions().size(), 2u);
  const auto* alpha = p.regions.byName("alpha");
  const auto* beta = p.regions.byName("beta");
  ASSERT_NE(alpha, nullptr);
  ASSERT_NE(beta, nullptr);
  EXPECT_FALSE(alpha->noncore);  // only beta was declared non-core
  EXPECT_TRUE(beta->noncore);
  EXPECT_EQ(alpha->size, 12);
  EXPECT_EQ(alpha->elementCount(), 1);
  EXPECT_EQ(p.regions.noncoreCount(), 1u);
}

TEST(ShmRegionTable, InitFunctionsIdentified) {
  auto p = run(std::string(kTwoRegions) +
               "int main(void) { init(); return 0; }");
  ASSERT_EQ(p.regions.initFunctions().size(), 1u);
  EXPECT_EQ(p.regions.initFunctions()[0]->name(), "init");
  EXPECT_TRUE(
      p.regions.isInitFunction(p.module->findFunction("init")));
  EXPECT_FALSE(
      p.regions.isInitFunction(p.module->findFunction("main")));
}

TEST(ShmRegionTable, DuplicateShmvarReported) {
  cfront::Frontend fe;
  fe.parseBuffer("dup.c", R"(
typedef struct C { int x; } C;
C *p;
extern void *shmat(int id, void *a, int f);
/*** SafeFlow Annotation shminit ***/
void init(void)
{
    p = (C *) shmat(1, 0, 0);
    /*** SafeFlow Annotation assume(shmvar(p, sizeof(C))) ***/
    /*** SafeFlow Annotation assume(shmvar(p, sizeof(C))) ***/
}
)");
  ir::Module m(fe.types());
  ir::Lowering lowering(fe.unit(), m, fe.diagnostics());
  lowering.run();
  const std::size_t before = fe.diagnostics().errorCount();
  analysis::ShmRegionTable::build(m, fe.diagnostics());
  EXPECT_GT(fe.diagnostics().errorCount(), before);
}

// ---------------------------------------------------------------------------
// Phase 1: pointer propagation
// ---------------------------------------------------------------------------

TEST(ShmPropagation, LoadOfRegionGlobalIsSeed) {
  auto p = run(std::string(kTwoRegions) + R"(
float get(void) { return beta->a; }
int main(void) { init(); get(); return 0; }
)");
  // Find the load of @beta inside get and check its fact.
  const ir::Function* get = p.module->findFunction("get");
  const analysis::ShmPtrInfo* found = nullptr;
  for (const auto& bb : get->blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() == ir::Opcode::kLoad &&
          inst->type()->isPointer()) {
        found = p.shm->info(inst);
      }
    }
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->regions.size(), 1u);
  EXPECT_TRUE(found->offset_known);
  EXPECT_EQ(found->lo, 0);
  EXPECT_EQ(found->hi, 0);
}

TEST(ShmPropagation, FieldAddrShiftsOffset) {
  auto p = run(std::string(kTwoRegions) + R"(
float get(void) { return beta->b; }
int main(void) { init(); get(); return 0; }
)");
  const ir::Function* get = p.module->findFunction("get");
  const analysis::ShmPtrInfo* field_fact = nullptr;
  for (const auto& bb : get->blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() == ir::Opcode::kFieldAddr) {
        field_fact = p.shm->info(inst);
      }
    }
  }
  ASSERT_NE(field_fact, nullptr);
  EXPECT_EQ(field_fact->lo, 4);  // field b at offset 4
  EXPECT_EQ(field_fact->hi, 4);
}

TEST(ShmPropagation, ArgumentsReceiveFactsFromCallers) {
  auto p = run(std::string(kTwoRegions) + R"(
float deref(Pack *q) { return q->a; }
int main(void) { init(); deref(beta); return 0; }
)");
  const ir::Function* deref = p.module->findFunction("deref");
  ASSERT_EQ(deref->args().size(), 1u);
  const auto* fact = p.shm->info(deref->args()[0]);
  ASSERT_NE(fact, nullptr);
  EXPECT_EQ(fact->regions.size(), 1u);
}

TEST(ShmPropagation, ReturnValuesPropagateToCallResults) {
  auto p = run(std::string(kTwoRegions) + R"(
Pack *pick(void) { return beta; }
float get(void) { return pick()->a; }
int main(void) { init(); get(); return 0; }
)");
  const ir::Function* get = p.module->findFunction("get");
  bool call_has_fact = false;
  for (const auto& bb : get->blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() == ir::Opcode::kCall &&
          p.shm->info(inst) != nullptr) {
        call_has_fact = true;
      }
    }
  }
  EXPECT_TRUE(call_has_fact);
}

TEST(ShmPropagation, UnknownIndexWidensToWholeRegion) {
  auto p = run(std::string(kTwoRegions) + R"(
float get(int i) { return (&beta->a)[i]; }
int main(void) { init(); get(1); return 0; }
)");
  const ir::Function* get = p.module->findFunction("get");
  const analysis::ShmPtrInfo* widened = nullptr;
  for (const auto& bb : get->blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() == ir::Opcode::kIndexAddr) {
        widened = p.shm->info(inst);
      }
    }
  }
  ASSERT_NE(widened, nullptr);
  EXPECT_FALSE(widened->offset_known);
}

TEST(ShmPropagation, NonShmPointersHaveNoFacts) {
  auto p = run(std::string(kTwoRegions) + R"(
int local(void) { int x; int *q; q = &x; return *q; }
int main(void) { init(); local(); return 0; }
)");
  const ir::Function* local = p.module->findFunction("local");
  for (const auto& bb : local->blocks()) {
    for (const auto& inst : bb->instructions()) {
      EXPECT_EQ(p.shm->info(inst), nullptr);
    }
  }
}

// ---------------------------------------------------------------------------
// Alias analysis
// ---------------------------------------------------------------------------

TEST(Alias, DistinctAllocasDistinctObjects) {
  auto p = run(R"(
void touch(int *a, int *b) { *a = 1; *b = 2; }
int main(void) { int x; int y; touch(&x, &y); return x + y; }
)");
  analysis::AliasAnalysis alias(*p.module, p.regions, *p.callgraph);
  alias.run();
  const ir::Function* touch = p.module->findFunction("touch");
  const auto& pa = alias.pointsTo(touch->args()[0]);
  const auto& pb = alias.pointsTo(touch->args()[1]);
  ASSERT_EQ(pa.size(), 1u);
  ASSERT_EQ(pb.size(), 1u);
  EXPECT_NE(*pa.begin(), *pb.begin());
}

TEST(Alias, FieldSensitivityDistinguishesFields) {
  auto p = run(R"(
struct Two { int a; int b; };
int main(void)
{
    struct Two t;
    int *pa;
    int *pb;
    pa = &t.a;
    pb = &t.b;
    *pa = 1;
    *pb = 2;
    return *pa;
}
)");
  analysis::AliasAnalysis alias(*p.module, p.regions, *p.callgraph,
                                analysis::AliasOptions{true});
  alias.run();
  // Locate the two FieldAddr instructions.
  const ir::Function* main_fn = p.module->findFunction("main");
  std::vector<const ir::Instruction*> geps;
  for (const auto& bb : main_fn->blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() == ir::Opcode::kFieldAddr) {
        geps.push_back(inst);
      }
    }
  }
  ASSERT_GE(geps.size(), 2u);
  EXPECT_NE(*alias.pointsTo(geps[0]).begin(),
            *alias.pointsTo(geps[1]).begin());

  analysis::AliasAnalysis insensitive(*p.module, p.regions, *p.callgraph,
                                      analysis::AliasOptions{false});
  insensitive.run();
  EXPECT_EQ(*insensitive.pointsTo(geps[0]).begin(),
            *insensitive.pointsTo(geps[1]).begin());
}

TEST(Alias, ExternalPointerReturnsUnknown) {
  auto p = run(R"(
extern int *mystery(void);
int main(void) { return *mystery(); }
)");
  analysis::AliasAnalysis alias(*p.module, p.regions, *p.callgraph);
  alias.run();
  const ir::Function* main_fn = p.module->findFunction("main");
  bool saw_unknown = false;
  for (const auto& bb : main_fn->blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() == ir::Opcode::kCall) {
        for (analysis::ObjId obj : alias.pointsTo(inst)) {
          if (alias.isUnknown(obj)) saw_unknown = true;
        }
      }
    }
  }
  EXPECT_TRUE(saw_unknown);
}

TEST(Alias, ParentOfFieldObject) {
  auto p = run(R"(
struct Two { int a; int b; };
int main(void) { struct Two t; t.a = 1; return t.a; }
)");
  analysis::AliasAnalysis alias(*p.module, p.regions, *p.callgraph);
  alias.run();
  const ir::Function* main_fn = p.module->findFunction("main");
  for (const auto& bb : main_fn->blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() != ir::Opcode::kFieldAddr) continue;
      for (analysis::ObjId obj : alias.pointsTo(inst)) {
        EXPECT_GE(alias.parentOf(obj), 0);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Control dependence
// ---------------------------------------------------------------------------

TEST(ControlDep, ThenBlockDependsOnBranch) {
  auto p = run(R"(
int f(int c) { int r; r = 0; if (c) { r = 1; } return r; }
)");
  const ir::Function* f = p.module->findFunction("f");
  const ir::CfgInfo& cd = f->cfg();
  const ir::BasicBlock* then_bb = nullptr;
  for (const auto& bb : f->blocks()) {
    if (bb->label().rfind("if.then", 0) == 0) then_bb = bb;
  }
  ASSERT_NE(then_bb, nullptr);
  EXPECT_FALSE(cd.controllers(then_bb).empty());
  EXPECT_TRUE(cd.controllers(then_bb).contains(f->entry()));
}

TEST(ControlDep, MergeBlockDoesNotDependOnBranch) {
  auto p = run(R"(
int f(int c) { int r; if (c) { r = 1; } else { r = 2; } return r; }
)");
  const ir::Function* f = p.module->findFunction("f");
  const ir::CfgInfo& cd = f->cfg();
  const ir::BasicBlock* end_bb = nullptr;
  for (const auto& bb : f->blocks()) {
    if (bb->label().rfind("if.end", 0) == 0) end_bb = bb;
  }
  ASSERT_NE(end_bb, nullptr);
  EXPECT_FALSE(cd.controllers(end_bb).contains(f->entry()));
}

TEST(ControlDep, LoopBodyDependsOnLoopCondition) {
  auto p = run(R"(
int f(int n) { int s; int i; s = 0;
  for (i = 0; i < n; i++) { s += i; }
  return s; }
)");
  const ir::Function* f = p.module->findFunction("f");
  const ir::CfgInfo& cd = f->cfg();
  const ir::BasicBlock* body = nullptr;
  const ir::BasicBlock* cond = nullptr;
  for (const auto& bb : f->blocks()) {
    if (bb->label().rfind("for.body", 0) == 0) body = bb;
    if (bb->label().rfind("for.cond", 0) == 0) cond = bb;
  }
  ASSERT_NE(body, nullptr);
  ASSERT_NE(cond, nullptr);
  EXPECT_TRUE(cd.controllers(body).contains(cond));
}

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

TEST(Report, ValueFlowDotContainsNodesAndEdges) {
  SafeFlowDriver driver;
  driver.addSource("r.c", R"(
typedef struct C { float v; } C;
C *cell;
extern void *shmat(int id, void *a, int f);
extern void sink(float v);
/*** SafeFlow Annotation shminit ***/
void init(void)
{
    cell = (C *) shmat(1, 0, 0);
    /*** SafeFlow Annotation assume(shmvar(cell, sizeof(C))) ***/
    /*** SafeFlow Annotation assume(noncore(cell)) ***/
}
int main(void)
{
    float out;
    init();
    out = cell->v;
    /*** SafeFlow Annotation assert(safe(out)); ***/
    sink(out);
    return 0;
}
)");
  const auto& report = driver.analyze();
  ASSERT_FALSE(report.errors.empty());
  const std::string dot = report.renderValueFlowDot(driver.sources());
  EXPECT_NE(dot.find("digraph safeflow_value_flow"), std::string::npos);
  EXPECT_NE(dot.find("region:cell"), std::string::npos);
  EXPECT_NE(dot.find("crit:main:out"), std::string::npos);
  EXPECT_NE(dot.find("label=\"data\""), std::string::npos);
}

TEST(Report, RenderListsEverySection) {
  SafeFlowDriver driver;
  driver.addSource("r.c", "int main(void) { return 0; }");
  const auto& report = driver.analyze();
  const std::string text = report.render(driver.sources());
  EXPECT_NE(text.find("warnings"), std::string::npos);
  EXPECT_NE(text.find("error dependencies"), std::string::npos);
  EXPECT_NE(text.find("restriction violations"), std::string::npos);
}

}  // namespace
