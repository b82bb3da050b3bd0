#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/synthetic.h"
#include "cfront/frontend.h"
#include "ir/callgraph.h"
#include "ir/cfg.h"
#include "ir/ir.h"
#include "ir/lowering.h"
#include "ir/printer.h"
#include "ir/ssa.h"
#include "safeflow/driver.h"

namespace {

using namespace safeflow;

struct Built {
  std::unique_ptr<cfront::Frontend> fe;
  std::unique_ptr<ir::Module> module;
  ir::SsaStats ssa;
};

Built build(const std::string& src, bool run_ssa = true) {
  Built b;
  b.fe = std::make_unique<cfront::Frontend>();
  EXPECT_TRUE(b.fe->parseBuffer("test.c", src))
      << b.fe->diagnostics().render(b.fe->sources());
  b.module = std::make_unique<ir::Module>(b.fe->types());
  ir::Lowering lowering(b.fe->unit(), *b.module, b.fe->diagnostics());
  EXPECT_TRUE(lowering.run())
      << b.fe->diagnostics().render(b.fe->sources());
  if (run_ssa) b.ssa = ir::promoteModuleToSsa(*b.module);
  return b;
}

std::size_t countOpcode(const ir::Function& fn, ir::Opcode op) {
  std::size_t n = 0;
  for (const auto& bb : fn.blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() == op) ++n;
    }
  }
  return n;
}

TEST(Lowering, SimpleFunctionShape) {
  const auto b = build("int add(int a, int b) { return a + b; }",
                       /*run_ssa=*/false);
  const ir::Function* f = b.module->findFunction("add");
  ASSERT_NE(f, nullptr);
  ASSERT_TRUE(f->isDefined());
  EXPECT_EQ(f->args().size(), 2u);
  EXPECT_EQ(countOpcode(*f, ir::Opcode::kAlloca), 2u);  // param spills
  EXPECT_EQ(countOpcode(*f, ir::Opcode::kBinOp), 1u);
  EXPECT_EQ(countOpcode(*f, ir::Opcode::kRet), 1u);
}

TEST(Lowering, GlobalsCreated) {
  const auto b = build("int g; float h; int main(void) { g = 1; return g; }");
  EXPECT_NE(b.module->findGlobal("g"), nullptr);
  EXPECT_NE(b.module->findGlobal("h"), nullptr);
}

TEST(Lowering, IfProducesDiamond) {
  const auto b = build(
      "int f(int x) { int r; if (x > 0) r = 1; else r = 2; return r; }",
      /*run_ssa=*/false);
  const ir::Function* f = b.module->findFunction("f");
  // entry, then, else, end
  EXPECT_EQ(f->blocks().size(), 4u);
  EXPECT_EQ(countOpcode(*f, ir::Opcode::kCondBr), 1u);
}

TEST(Lowering, WhileProducesLoop) {
  const auto b = build(
      "int f(int n) { int i = 0; while (i < n) { i = i + 1; } return i; }",
      false);
  const ir::Function* f = b.module->findFunction("f");
  EXPECT_EQ(f->blocks().size(), 4u);  // entry, cond, body, end
}

TEST(Lowering, CallDirect) {
  const auto b = build(
      "int g(int x) { return x; }\n"
      "int f(void) { return g(3); }",
      false);
  const ir::Function* f = b.module->findFunction("f");
  bool found = false;
  for (const auto& bb : f->blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() == ir::Opcode::kCall) {
        ASSERT_NE(inst->direct_callee, nullptr);
        EXPECT_EQ(inst->direct_callee->name(), "g");
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(Lowering, StructFieldAccessUsesFieldAddr) {
  const auto b = build(
      "struct P { float x; float y; };\n"
      "float get(struct P *p) { return p->y; }",
      false);
  const ir::Function* f = b.module->findFunction("get");
  std::size_t fieldaddrs = countOpcode(*f, ir::Opcode::kFieldAddr);
  EXPECT_EQ(fieldaddrs, 1u);
  for (const auto& bb : f->blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() == ir::Opcode::kFieldAddr) {
        EXPECT_EQ(inst->field_index, 1u);
      }
    }
  }
}

TEST(Lowering, ArrayIndexUsesIndexAddr) {
  const auto b = build(
      "double table[8];\n"
      "double get(int i) { return table[i]; }",
      false);
  const ir::Function* f = b.module->findFunction("get");
  EXPECT_EQ(countOpcode(*f, ir::Opcode::kIndexAddr), 1u);
}

TEST(Lowering, PointerArithmeticUsesIndexAddr) {
  const auto b = build(
      "struct S { int v; };\n"
      "struct S *next(struct S *p) { return p + 1; }",
      false);
  const ir::Function* f = b.module->findFunction("next");
  EXPECT_EQ(countOpcode(*f, ir::Opcode::kIndexAddr), 1u);
}

TEST(Lowering, ExplicitCastEmitsCastInst) {
  const auto b = build(
      "struct S { int v; };\n"
      "void *shmat(int i, void *a, int f);\n"
      "struct S *get(int id) { return (struct S *)shmat(id, 0, 0); }",
      false);
  const ir::Function* f = b.module->findFunction("get");
  EXPECT_GE(countOpcode(*f, ir::Opcode::kCast), 1u);
}

TEST(Lowering, AnnotationsBecomeIntrinsics) {
  const auto b = build(
      "typedef struct D { float c; } SHMData;\n"
      "SHMData *nc;\n"
      "void send(float v);\n"
      "float decision(SHMData *p)\n"
      "/*** SafeFlow Annotation assume(core(p, 0, sizeof(SHMData))) ***/\n"
      "{ return p->c; }\n"
      "void loop(void) {\n"
      "  float out = decision(nc);\n"
      "  /*** SafeFlow Annotation assert(safe(out)); ***/\n"
      "  send(out);\n"
      "}",
      false);
  const ir::Function* dec = b.module->findFunction("decision");
  ASSERT_NE(dec, nullptr);
  EXPECT_TRUE(dec->annotations.is_monitor);
  EXPECT_NE(b.module->findFunction(std::string(ir::kIntrinsicAssumeCore)),
            nullptr);
  EXPECT_NE(b.module->findFunction(std::string(ir::kIntrinsicAssertSafe)),
            nullptr);
  // The assume.core call carries offset 0 and size 4 (struct D{float}).
  bool saw_assume = false;
  for (const auto& bb : dec->blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (inst->opcode() == ir::Opcode::kCall &&
          inst->direct_callee != nullptr &&
          inst->direct_callee->name() == ir::kIntrinsicAssumeCore) {
        saw_assume = true;
        ASSERT_EQ(inst->numOperands(), 3u);
        const auto* size =
            static_cast<const ir::ConstantInt*>(inst->operand(2));
        EXPECT_EQ(size->value(), 4);
      }
    }
  }
  EXPECT_TRUE(saw_assume);
}

TEST(Lowering, ShminitFlagSet) {
  const auto b = build(
      "/*** SafeFlow Annotation shminit ***/\n"
      "void initComm(void) { }",
      false);
  const ir::Function* f = b.module->findFunction("initComm");
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->annotations.is_shminit);
}

TEST(Lowering, SwitchLowersToCompares) {
  const auto b = build(
      "int f(int m) {\n"
      "  int r = 0;\n"
      "  switch (m) { case 1: r = 10; break; case 2: r = 20; break;\n"
      "               default: r = 30; }\n"
      "  return r;\n"
      "}",
      false);
  const ir::Function* f = b.module->findFunction("f");
  EXPECT_GE(countOpcode(*f, ir::Opcode::kCmp), 2u);
  // Every block must end in a terminator after lowering.
  for (const auto& bb : f->blocks()) {
    EXPECT_NE(bb->terminator(), nullptr) << bb->label();
  }
}

// ---------------------------------------------------------------------------
// SSA
// ---------------------------------------------------------------------------

TEST(Ssa, PromotesScalarLocals) {
  cfront::Frontend fe;
  ASSERT_TRUE(fe.parseBuffer(
      "t.c", "int f(int x) { int a = x + 1; return a * 2; }"));
  ir::Module m(fe.types());
  ir::Lowering lowering(fe.unit(), m, fe.diagnostics());
  ASSERT_TRUE(lowering.run());
  const auto stats = ir::promoteModuleToSsa(m);
  EXPECT_GE(stats.promoted_allocas, 2u);  // x spill + a
  const ir::Function* f = m.findFunction("f");
  EXPECT_EQ(countOpcode(*f, ir::Opcode::kAlloca), 0u);
  EXPECT_EQ(ir::verifySsa(*f), "");
}

TEST(Ssa, InsertsPhiAtMerge) {
  const auto b = build(
      "int f(int x) { int r; if (x > 0) r = 1; else r = 2; return r; }");
  const ir::Function* f = b.module->findFunction("f");
  EXPECT_EQ(countOpcode(*f, ir::Opcode::kPhi), 1u);
  EXPECT_EQ(ir::verifySsa(*f), "");
}

TEST(Ssa, LoopVariableGetsPhi) {
  const auto b = build(
      "int sum(int n) { int i; int s = 0;\n"
      "  for (i = 0; i < n; i++) { s += i; }\n"
      "  return s; }");
  const ir::Function* f = b.module->findFunction("sum");
  EXPECT_GE(countOpcode(*f, ir::Opcode::kPhi), 2u);  // i and s
  EXPECT_EQ(ir::verifySsa(*f), "");
}

TEST(Ssa, AddressTakenLocalStaysInMemory) {
  const auto b = build(
      "void init(int *p);\n"
      "int f(void) { int a; init(&a); return a; }");
  const ir::Function* f = b.module->findFunction("f");
  EXPECT_EQ(countOpcode(*f, ir::Opcode::kAlloca), 1u);
  EXPECT_EQ(ir::verifySsa(*f), "");
}

TEST(Ssa, StructLocalStaysInMemory) {
  const auto b = build(
      "struct V { float x; float y; };\n"
      "float f(void) { struct V v; v.x = 1.0f; return v.x; }");
  const ir::Function* f = b.module->findFunction("f");
  EXPECT_EQ(countOpcode(*f, ir::Opcode::kAlloca), 1u);
}

TEST(Ssa, ShortCircuitTempPromoted) {
  const auto b = build(
      "int f(int a, int b) { return a > 0 && b > 0; }");
  const ir::Function* f = b.module->findFunction("f");
  EXPECT_EQ(countOpcode(*f, ir::Opcode::kAlloca), 0u);
  EXPECT_EQ(ir::verifySsa(*f), "");
}

TEST(Ssa, ConditionalExprPromoted) {
  const auto b = build("int mx(int a, int b) { return a > b ? a : b; }");
  const ir::Function* f = b.module->findFunction("mx");
  EXPECT_EQ(countOpcode(*f, ir::Opcode::kAlloca), 0u);
  EXPECT_EQ(countOpcode(*f, ir::Opcode::kPhi), 1u);
  EXPECT_EQ(ir::verifySsa(*f), "");
}

TEST(Ssa, VerifierAcceptsComplexFunctions) {
  const auto b = build(
      "int collatz(int n) {\n"
      "  int steps = 0;\n"
      "  while (n != 1) {\n"
      "    if (n % 2 == 0) n = n / 2; else n = 3 * n + 1;\n"
      "    steps++;\n"
      "    if (steps > 1000) break;\n"
      "  }\n"
      "  return steps;\n"
      "}");
  EXPECT_EQ(ir::verifySsa(*b.module->findFunction("collatz")), "");
}

// ---------------------------------------------------------------------------
// SSA on the real inputs
// ---------------------------------------------------------------------------

const std::string kCorpus = SAFEFLOW_CORPUS_DIR;
const char* const kCorpusSystems[] = {"running_example", "ip",
                                      "generic_simplex", "double_ip",
                                      "rangelab",        "pointerlab"};

/// A corpus system's core files in name order.
std::vector<std::string> corpusFiles(const std::string& sys) {
  if (sys == "running_example") return {kCorpus + "/running_example/core.c"};
  std::vector<std::string> files;
  for (const auto& e :
       std::filesystem::directory_iterator(kCorpus + "/" + sys + "/core")) {
    if (e.path().extension() == ".c") files.push_back(e.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Lowers a corpus system to SSA with `<sys>/common` on the include
/// path, as the Table 1 runs have it.
Built buildCorpusSystem(const std::string& sys) {
  Built b;
  b.fe = std::make_unique<cfront::Frontend>(
      std::vector<std::string>{kCorpus + "/" + sys + "/common"});
  for (const std::string& file : corpusFiles(sys)) {
    EXPECT_TRUE(b.fe->parseFile(file)) << file;
  }
  b.module = std::make_unique<ir::Module>(b.fe->types());
  ir::Lowering lowering(b.fe->unit(), *b.module, b.fe->diagnostics());
  EXPECT_TRUE(lowering.run()) << sys;
  b.ssa = ir::promoteModuleToSsa(*b.module);
  return b;
}

void addStats(ir::SsaStats& total, const ir::SsaStats& s) {
  total.promoted_allocas += s.promoted_allocas;
  total.phis_inserted += s.phis_inserted;
  total.loads_removed += s.loads_removed;
  total.stores_removed += s.stores_removed;
}

/// Checks every defined function; returns how many there were.
std::size_t expectWellFormed(const ir::Module& module) {
  std::size_t defined = 0;
  for (const auto& fn : module.functions()) {
    if (!fn->isDefined()) continue;
    ++defined;
    EXPECT_EQ(ir::verifySsa(*fn), "") << fn->name();
  }
  return defined;
}

// The counters are pinned from the SSA construction that rescanned the
// body per alloca and per load; the linear one must place and remove
// exactly the same instructions.
TEST(SsaInputs, CorpusIsWellFormedWithUnchangedCounters) {
  ir::SsaStats total;
  std::size_t functions = 0;
  for (const char* sys : kCorpusSystems) {
    const Built b = buildCorpusSystem(sys);
    functions += expectWellFormed(*b.module);
    addStats(total, b.ssa);
  }
  EXPECT_EQ(functions, 144u);
  EXPECT_EQ(total.promoted_allocas, 357u);
  EXPECT_EQ(total.phis_inserted, 131u);
  EXPECT_EQ(total.loads_removed, 667u);
  EXPECT_EQ(total.stores_removed, 455u);
}

TEST(SsaInputs, WorkloadProgramsAreWellFormedWithUnchangedCounters) {
  ir::SsaStats total;
  std::size_t functions = 0;
  for (const std::string& src :
       {bench::scalingProgram(2000), bench::accumulatorCycleProgram(12, 96),
        bench::pointerChurnProgram(200, 32)}) {
    const Built b = build(src);
    functions += expectWellFormed(*b.module);
    addStats(total, b.ssa);
  }
  EXPECT_EQ(functions, 2250u);
  EXPECT_EQ(total.promoted_allocas, 10426u);
  EXPECT_EQ(total.phis_inserted, 7964u);
  EXPECT_EQ(total.loads_removed, 23033u);
  EXPECT_EQ(total.stores_removed, 20612u);
}

// ---------------------------------------------------------------------------
// CfgInfo: dominators, post-dominators
// ---------------------------------------------------------------------------

const char* const kDiamond =
    "int f(int x) { int r; if (x) r = 1; else r = 2; return r; }";

const ir::BasicBlock* blockWithPrefix(const ir::Function& f,
                                      const std::string& prefix) {
  for (const auto& bb : f.blocks()) {
    if (bb->label().rfind(prefix, 0) == 0) return bb;
  }
  return nullptr;
}

TEST(Dominators, EntryDominatesAll) {
  const auto b = build(kDiamond);
  const ir::Function* f = b.module->findFunction("f");
  const ir::CfgInfo& cfg = f->cfg();
  for (const auto& bb : f->blocks()) {
    EXPECT_TRUE(cfg.dominates(f->entry(), bb)) << bb->label();
  }
}

TEST(Dominators, BranchesDoNotDominateMerge) {
  const auto b = build(kDiamond);
  const ir::Function* f = b.module->findFunction("f");
  const ir::CfgInfo& cfg = f->cfg();
  const ir::BasicBlock* then_bb = blockWithPrefix(*f, "if.then");
  const ir::BasicBlock* end_bb = blockWithPrefix(*f, "if.end");
  ASSERT_NE(then_bb, nullptr);
  ASSERT_NE(end_bb, nullptr);
  EXPECT_FALSE(cfg.dominates(then_bb, end_bb));
  EXPECT_EQ(cfg.idom(end_bb), f->entry());
}

TEST(Dominators, FrontierOfBranchIsMerge) {
  const auto b = build(kDiamond);
  const ir::Function* f = b.module->findFunction("f");
  const ir::BasicBlock* then_bb = blockWithPrefix(*f, "if.then");
  const ir::BasicBlock* end_bb = blockWithPrefix(*f, "if.end");
  ASSERT_NE(then_bb, nullptr);
  EXPECT_TRUE(f->cfg().frontier(then_bb).contains(end_bb));
}

TEST(Dominators, PostDominatorsOfDiamond) {
  const auto b = build(kDiamond);
  const ir::Function* f = b.module->findFunction("f");
  const ir::BasicBlock* end_bb = blockWithPrefix(*f, "if.end");
  ASSERT_NE(end_bb, nullptr);
  // The merge block post-dominates the entry.
  EXPECT_TRUE(f->cfg().postDominates(end_bb, f->entry()));
}

TEST(Dominators, InfiniteLoopPostDomDoesNotCrash) {
  const auto b = build(
      "void run(void) { while (1) { } }\n"
      "int spin(int x) { for (;;) { x = x + 1; } return x; }");
  (void)b.module->findFunction("run")->cfg();
  // No block of spin's loop reaches a ret: each hangs under the virtual
  // exit, so nothing is control dependent on the loop's missing exits.
  const ir::Function* spin = b.module->findFunction("spin");
  const ir::CfgInfo& cfg = spin->cfg();
  const ir::BasicBlock* body = blockWithPrefix(*spin, "for.body");
  ASSERT_NE(body, nullptr) << ir::print(*spin);
  EXPECT_EQ(cfg.ipdom(body), nullptr);
  EXPECT_TRUE(cfg.controllers(body).empty());
}

TEST(CfgInfo, NumberingIsReversePostorderAndChildrenFollowIt) {
  for (const char* sys : kCorpusSystems) {
    const Built b = buildCorpusSystem(sys);
    for (const auto& fn : b.module->functions()) {
      if (!fn->isDefined()) continue;
      const ir::CfgInfo& cfg = fn->cfg();
      ASSERT_EQ(cfg.block(0), fn->entry());
      for (std::uint32_t n = 0; n < cfg.reachableCount(); ++n) {
        const ir::BasicBlock* bb = cfg.block(n);
        // Every edge but a back edge goes forward in reverse postorder.
        for (const ir::BasicBlock* s : cfg.successors(bb)) {
          if (!cfg.dominates(s, bb)) {
            EXPECT_LT(n, cfg.number(s)) << fn->name() << " " << bb->label();
          }
        }
        const ir::BlockList children = cfg.children(bb);
        for (std::size_t i = 1; i < children.size(); ++i) {
          EXPECT_LT(cfg.number(children[i - 1]), cfg.number(children[i]))
              << fn->name() << " " << bb->label();
        }
        for (const ir::BasicBlock* c : children) {
          EXPECT_EQ(cfg.idom(c), bb);
        }
      }
    }
  }
}

TEST(CfgInfo, DominatesAgreesWithIdomChainWalk) {
  std::size_t pairs = 0;
  for (const char* sys : kCorpusSystems) {
    const Built built = buildCorpusSystem(sys);
    for (const auto& fn : built.module->functions()) {
      if (!fn->isDefined()) continue;
      const ir::CfgInfo& cfg = fn->cfg();
      for (const auto& a : fn->blocks()) {
        for (const auto& b : fn->blocks()) {
          bool walked = false;
          for (const ir::BasicBlock* cur = b; cur != nullptr;
               cur = cfg.idom(cur)) {
            if (cur == a) walked = true;
          }
          EXPECT_EQ(cfg.dominates(a, b), walked)
              << fn->name() << ": " << a->label() << " / " << b->label();
          ++pairs;
        }
      }
    }
  }
  EXPECT_GT(pairs, 0u);
}

TEST(CfgInfo, UnreachableBlockHasNoIdomAndDominatesOnlyItself) {
  const auto b = build(
      "int f(int x) { if (x) return 1; return 2; x = x + 1; return x; }");
  const ir::Function* f = b.module->findFunction("f");
  const ir::CfgInfo& cfg = f->cfg();
  const ir::BasicBlock* dead = nullptr;
  for (const auto& bb : f->blocks()) {
    if (!cfg.reachable(bb)) dead = bb;
  }
  ASSERT_NE(dead, nullptr) << ir::print(*f);
  EXPECT_EQ(cfg.idom(dead), nullptr);
  EXPECT_TRUE(cfg.frontier(dead).empty());
  for (const auto& bb : f->blocks()) {
    EXPECT_EQ(cfg.dominates(dead, bb), bb == dead) << bb->label();
    EXPECT_EQ(cfg.dominates(bb, dead), bb == dead) << bb->label();
  }
  EXPECT_EQ(ir::verifySsa(*f), "");
}

/// The printed IR of double_ip after a driver run, with `before` systems
/// analyzed (and kept alive) first in the same process.
std::string printDoubleIpAfter(const std::vector<std::string>& before) {
  std::vector<std::unique_ptr<SafeFlowDriver>> earlier;
  for (const std::string& sys : before) {
    SafeFlowOptions o;
    o.include_dirs = {kCorpus + "/" + sys + "/common"};
    earlier.push_back(std::make_unique<SafeFlowDriver>(o));
    for (const std::string& file : corpusFiles(sys)) {
      earlier.back()->addFile(file);
    }
    earlier.back()->analyze();
  }
  SafeFlowOptions o;
  o.include_dirs = {kCorpus + "/double_ip/common"};
  SafeFlowDriver d(o);
  for (const std::string& file : corpusFiles("double_ip")) d.addFile(file);
  d.analyze();
  return ir::print(*d.module());
}

// Phi operand order follows the rename walk, which follows the dominator
// tree's children; in reverse postorder, nothing the process allocated
// before can move it. NumberingIsReversePostorderAndChildrenFollowIt
// checks the order itself.
TEST(CfgInfo, PrintedSsaDoesNotDependOnEarlierRuns) {
  const std::string alone = printDoubleIpAfter({});
  EXPECT_NE(alone.find("%applied.phi"), std::string::npos);
  EXPECT_EQ(printDoubleIpAfter({"ip", "generic_simplex"}), alone);
}

// ---------------------------------------------------------------------------
// Call graph
// ---------------------------------------------------------------------------

TEST(CallGraph, DirectEdges) {
  const auto b = build(
      "int leaf(void) { return 1; }\n"
      "int mid(void) { return leaf(); }\n"
      "int top(void) { return mid() + leaf(); }");
  ir::CallGraph cg(*b.module);
  const ir::Function* top = b.module->findFunction("top");
  const ir::Function* mid = b.module->findFunction("mid");
  const ir::Function* leaf = b.module->findFunction("leaf");
  // Distinct neighbours, in module order.
  using Fns = std::vector<const ir::Function*>;
  EXPECT_EQ(cg.callees(top), (Fns{leaf, mid}));
  EXPECT_EQ(cg.callers(leaf), (Fns{mid, top}));
  EXPECT_FALSE(cg.isRecursive(top));
}

TEST(CallGraph, BottomUpOrderLeafFirst) {
  const auto b = build(
      "int leaf(void) { return 1; }\n"
      "int mid(void) { return leaf(); }\n"
      "int top(void) { return mid(); }");
  ir::CallGraph cg(*b.module);
  const auto& sccs = cg.sccsBottomUp();
  std::map<const ir::Function*, std::size_t> pos;
  for (std::size_t i = 0; i < sccs.size(); ++i) {
    for (const ir::Function* f : sccs[i]) pos[f] = i;
  }
  EXPECT_LT(pos[b.module->findFunction("leaf")],
            pos[b.module->findFunction("mid")]);
  EXPECT_LT(pos[b.module->findFunction("mid")],
            pos[b.module->findFunction("top")]);
}

TEST(CallGraph, MutualRecursionFormsScc) {
  const auto b = build(
      "int odd(int n);\n"
      "int even(int n) { if (n == 0) return 1; return odd(n - 1); }\n"
      "int odd(int n) { if (n == 0) return 0; return even(n - 1); }");
  ir::CallGraph cg(*b.module);
  const ir::Function* even = b.module->findFunction("even");
  const ir::Function* odd = b.module->findFunction("odd");
  EXPECT_TRUE(cg.isRecursive(even));
  EXPECT_TRUE(cg.isRecursive(odd));
  for (const auto& scc : cg.sccsBottomUp()) {
    if (std::find(scc.begin(), scc.end(), even) != scc.end()) {
      EXPECT_NE(std::find(scc.begin(), scc.end(), odd), scc.end());
    }
  }
}

TEST(CallGraph, SelfRecursionDetected) {
  const auto b = build(
      "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }");
  ir::CallGraph cg(*b.module);
  EXPECT_TRUE(cg.isRecursive(b.module->findFunction("fact")));
}

TEST(CallGraph, TopDownIsReverseOfBottomUp) {
  const auto b = build(
      "int leaf(void) { return 1; }\n"
      "int top(void) { return leaf(); }");
  ir::CallGraph cg(*b.module);
  const auto up = cg.sccsBottomUp();
  const auto down = cg.sccsTopDown();
  ASSERT_EQ(up.size(), down.size());
  EXPECT_EQ(up.front(), down.back());
}

/// Names of the functions in `fns`, in order.
std::vector<std::string> namesOf(const std::vector<const ir::Function*>& fns) {
  std::vector<std::string> names;
  for (const ir::Function* f : fns) names.emplace_back(f->name());
  return names;
}

TEST(CallGraph, SccsFollowModuleOrderNotAddresses) {
  // Tarjan takes roots and callees in module order, so the bottom-up
  // order is a function of the program alone: two modules built from it
  // agree, whatever addresses their functions got. `a` calls b before c;
  // its callees are listed in module order all the same.
  const char* const source =
      "int d(void) { return 4; }\n"
      "int c(void) { return 3; }\n"
      "int b(void) { return d() + c(); }\n"
      "int a(void) { return b() + c(); }\n"
      "int e(void) { return 5; }";
  std::vector<std::string> first;
  for (int run = 0; run < 2; ++run) {
    const auto b = build(source);
    ir::CallGraph cg(*b.module);
    std::vector<std::string> order;
    for (const auto& scc : cg.sccsBottomUp()) {
      ASSERT_EQ(scc.size(), 1u);
      order.emplace_back(scc.front()->name());
    }
    EXPECT_EQ(order, (std::vector<std::string>{"d", "c", "b", "a", "e"}));
    EXPECT_EQ(namesOf(cg.callees(b.module->findFunction("a"))),
              (std::vector<std::string>{"c", "b"}));
    if (run == 0) first = order;
    EXPECT_EQ(order, first);
  }
}

TEST(FunctionWorklist, SeedsBottomUpAndQueuesWakesInModuleOrder) {
  const auto b = build(
      "int leaf(void) { return 1; }\n"
      "int mid(void) { return leaf(); }\n"
      "int top(void) { return mid() + leaf(); }\n"
      "int skipped(void) { return top(); }");
  const ir::Module& m = *b.module;
  ir::CallGraph cg(m);
  ir::FunctionWorklist worklist(cg, [](const ir::Function& fn) {
    return fn.name() != "skipped";
  });
  const ir::Function* leaf = m.findFunction("leaf");
  const ir::Function* mid = m.findFunction("mid");
  const ir::Function* top = m.findFunction("top");
  const ir::Function* skipped = m.findFunction("skipped");
  // Seeds: every member, callees first; non-members never.
  EXPECT_EQ(worklist.pop(), leaf);
  // Woken in any order, queued in module order, each once.
  worklist.wake(top);
  worklist.wakeCallers(leaf);  // mid, top
  worklist.wake(skipped);
  EXPECT_EQ(worklist.pop(), mid);  // seed
  EXPECT_EQ(worklist.pop(), top);  // seed, still queued when woken
  EXPECT_EQ(worklist.pop(), nullptr);
  worklist.wake(top);
  worklist.wake(mid);
  worklist.wake(leaf);
  EXPECT_EQ(worklist.pop(), leaf);
  EXPECT_EQ(worklist.pop(), mid);
  EXPECT_EQ(worklist.pop(), top);
  EXPECT_EQ(worklist.pop(), nullptr);
  EXPECT_EQ(worklist.pushes(), 6u);
}

TEST(FunctionWorklist, WakeCallersSkipsTheFunctionItself) {
  // A self-recursive function's own solve has read its grown return.
  const auto b = build(
      "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }\n"
      "int main(void) { return fact(5); }");
  ir::CallGraph cg(*b.module);
  ir::FunctionWorklist worklist(cg,
                                [](const ir::Function&) { return true; });
  const ir::Function* fact = b.module->findFunction("fact");
  while (worklist.pop() != nullptr) {
  }
  worklist.wakeCallers(fact);
  EXPECT_EQ(worklist.pop(), b.module->findFunction("main"));
  EXPECT_EQ(worklist.pop(), nullptr);
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

TEST(Printer, ContainsFunctionAndOpcodes) {
  const auto b = build("int add(int a, int b) { return a + b; }");
  const std::string text = ir::print(*b.module);
  EXPECT_NE(text.find("define int @add"), std::string::npos);
  EXPECT_NE(text.find("add"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
}

TEST(Printer, MarksAnnotatedFunctions) {
  const auto b = build(
      "typedef struct D { float c; } SHMData;\n"
      "float mon(SHMData *p)\n"
      "/*** SafeFlow Annotation assume(core(p, 0, sizeof(SHMData))) ***/\n"
      "{ return p->c; }");
  const std::string text = ir::print(*b.module->findFunction("mon"));
  EXPECT_NE(text.find("monitor"), std::string::npos);
}

}  // namespace
