// Tests for function-level incremental analysis (DESIGN.md §16): the
// Merkle key map over the callgraph, the per-phase memo seam through a
// resident SummaryStore, edit-cone invalidation scenarios (leaf edit,
// shared callee, signature change, call-edge add/remove, comment-only
// touch), the cold re-solve oracle (SummaryOptions::verify), budget
// gating, and cold, warm and edited runs over the three Table 1
// systems.
//
// Assertions are on resolvedFunctions()/memoizedFunctions() NAME SETS,
// not on raw hit/miss counters: a cold run already produces intra-run
// digest hits (a fixpoint revisits a function whose inputs did not
// change since its last local solve), so counters alone cannot
// distinguish "replayed from the store" from "converged quickly".
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "ir/callgraph.h"
#include "safeflow/driver.h"
#include "safeflow/summary_store.h"

namespace {

using namespace safeflow;

const std::string kCorpus = SAFEFLOW_CORPUS_DIR;

std::string freshDir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/" + leaf + "." +
                          std::to_string(::getpid());
  const std::string cmd = "rm -rf '" + dir + "'";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

void writeFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << contents;
}

// A call chain main -> top -> mid -> leaf plus `keeper`, which only
// main calls. Editing leaf must invalidate exactly the chain above it
// (including main); keeper's summaries must replay from the store.
const char* kConeBase = R"(
int leaf(int x) { return x + 1; }
int mid(int x) { return leaf(x) + 2; }
int top(int x) { return mid(x) + 3; }
int keeper(int x) { return x * 2; }
int main(void) { return top(1) + keeper(2); }
)";

// The running-example shape from driver_test, so the memo seam is also
// exercised with shm regions, annotations, and a monitor function.
const char* kShmProgram = R"(
typedef struct C { float v; int mode; } C;
C *cell;
extern void *shmat(int id, void *a, int f);
/*** SafeFlow Annotation shminit ***/
void init(void)
{
    cell = (C *) shmat(1, 0, 0);
    /*** SafeFlow Annotation assume(shmvar(cell, sizeof(C))) ***/
    /*** SafeFlow Annotation assume(noncore(cell)) ***/
}
float mon(void)
/*** SafeFlow Annotation assume(core(cell, 0, sizeof(C))) ***/
{
    return cell->v;
}
int main(void) { init(); mon(); return 0; }
)";

struct RunResult {
  std::string render;  // report + diagnostics, the byte-identity probe
  std::set<std::string> resolved[kSummaryPhaseCount];
  std::set<std::string> memoized[kSummaryPhaseCount];
  SummaryStoreStats stats;
  bool verify_failed = false;
  std::string disabled_reason;
};

std::string renderOf(const SafeFlowDriver& driver) {
  return driver.report().render(driver.sources()) +
         driver.diagnostics().render(driver.sources());
}

/// What an analyzed driver and its store say about the run.
RunResult collect(const SafeFlowDriver& driver, const SummaryStore& store) {
  RunResult r;
  r.render = renderOf(driver);
  for (int p = 0; p < kSummaryPhaseCount; ++p) {
    r.resolved[p] = store.resolvedFunctions(static_cast<SummaryPhase>(p));
    r.memoized[p] = store.memoizedFunctions(static_cast<SummaryPhase>(p));
  }
  r.stats = store.stats();
  r.verify_failed = driver.summaryVerifyFailed();
  r.disabled_reason = driver.stats().summaries_disabled_reason;
  return r;
}

RunResult runWith(SummaryStore& store, const std::string& src,
                  bool verify = false, SafeFlowOptions opt = {}) {
  opt.summaries.enabled = true;
  opt.summaries.verify = verify;
  SafeFlowDriver driver(opt);
  driver.setSummaryStore(&store);
  EXPECT_TRUE(driver.addSource("prog.c", src));
  driver.analyze();
  return collect(driver, store);
}

// Union of live-solved function names across all three phases.
std::set<std::string> resolvedAnywhere(const RunResult& r) {
  std::set<std::string> names;
  for (int p = 0; p < kSummaryPhaseCount; ++p) {
    names.insert(r.resolved[p].begin(), r.resolved[p].end());
  }
  return names;
}

TEST(SummaryStore, PhaseNames) {
  EXPECT_EQ(summaryPhaseName(SummaryPhase::kShm), "shm");
  EXPECT_EQ(summaryPhaseName(SummaryPhase::kRanges), "ranges");
  EXPECT_EQ(summaryPhaseName(SummaryPhase::kTaint), "taint");
}

TEST(Summaries, WarmUneditedRunResolvesNothing) {
  SummaryStore store("", kAnalyzerVersion);
  const RunResult cold = runWith(store, kShmProgram);
  EXPECT_FALSE(resolvedAnywhere(cold).empty());

  const RunResult warm = runWith(store, kShmProgram);
  EXPECT_TRUE(resolvedAnywhere(warm).empty())
      << "warm run re-solved: " << *resolvedAnywhere(warm).begin();
  EXPECT_EQ(warm.stats.misses, 0u);
  EXPECT_EQ(warm.stats.invalidated, 0u);
  EXPECT_GT(warm.stats.spliced, 0u);
  // Every function the cold run solved replays in the taint phase.
  EXPECT_EQ(warm.memoized[static_cast<int>(SummaryPhase::kTaint)],
            cold.resolved[static_cast<int>(SummaryPhase::kTaint)]);
  EXPECT_EQ(warm.render, cold.render);
}

TEST(Summaries, EditingLeafReSolvesExactlyItsCallerCone) {
  SummaryStore store("", kAnalyzerVersion);
  const RunResult cold = runWith(store, kConeBase);

  std::string edited = kConeBase;
  const auto pos = edited.find("x + 1");
  ASSERT_NE(pos, std::string::npos);
  edited.replace(pos, 5, "x + 9");
  const RunResult warm = runWith(store, edited);

  const std::set<std::string> cone = {"leaf", "mid", "top", "main"};
  EXPECT_EQ(warm.resolved[static_cast<int>(SummaryPhase::kTaint)], cone);
  for (int p = 0; p < kSummaryPhaseCount; ++p) {
    for (const std::string& name : warm.resolved[p]) {
      EXPECT_TRUE(cone.count(name)) << summaryPhaseName(
                                           static_cast<SummaryPhase>(p))
                                    << " re-solved " << name;
    }
  }
  EXPECT_TRUE(warm.memoized[static_cast<int>(SummaryPhase::kTaint)].count(
      "keeper"));
  EXPECT_GT(warm.stats.invalidated, 0u);
}

TEST(Summaries, EditingSharedCalleeInvalidatesAllItsCallers) {
  // keeper becomes a shared callee of mid and main; editing it must
  // re-solve both call paths but leave leaf alone.
  const std::string base =
      "int keeper(int x) { return x * 2; }\n"
      "int leaf(int x) { return x + 1; }\n"
      "int mid(int x) { return leaf(x) + keeper(x); }\n"
      "int main(void) { return mid(1) + keeper(2); }\n";
  SummaryStore store("", kAnalyzerVersion);
  (void)runWith(store, base);

  std::string edited = base;
  const auto pos = edited.find("x * 2");
  ASSERT_NE(pos, std::string::npos);
  edited.replace(pos, 5, "x * 3");
  const RunResult warm = runWith(store, edited);

  const std::set<std::string> cone = {"keeper", "mid", "main"};
  EXPECT_EQ(warm.resolved[static_cast<int>(SummaryPhase::kTaint)], cone);
  EXPECT_TRUE(warm.memoized[static_cast<int>(SummaryPhase::kTaint)].count(
      "leaf"));
}

TEST(Summaries, ChangingASignatureInvalidatesTheCone) {
  SummaryStore store("", kAnalyzerVersion);
  (void)runWith(store, kConeBase);

  // Only the return type changes; every caller's source text is
  // untouched, so this exercises the Merkle edge (callers' keys change
  // because leaf's key does), not a textual diff of the callers.
  std::string edited = kConeBase;
  const auto pos = edited.find("int leaf");
  ASSERT_NE(pos, std::string::npos);
  edited.replace(pos, 8, "long leaf");
  const RunResult warm = runWith(store, edited);

  const auto resolved = resolvedAnywhere(warm);
  EXPECT_TRUE(resolved.count("leaf"));
  EXPECT_TRUE(resolved.count("mid"));
  EXPECT_FALSE(resolved.count("keeper"));
  EXPECT_TRUE(warm.memoized[static_cast<int>(SummaryPhase::kTaint)].count(
      "keeper"));
}

TEST(Summaries, AddingAndRemovingACallEdgeInvalidatesTheCallerCone) {
  SummaryStore store("", kAnalyzerVersion);
  (void)runWith(store, kConeBase);

  // mid gains a call edge to keeper: mid/top/main change keys; leaf and
  // keeper themselves are byte-identical and must replay.
  std::string added = kConeBase;
  const auto pos = added.find("leaf(x) + 2");
  ASSERT_NE(pos, std::string::npos);
  added.replace(pos, 11, "leaf(x) + keeper(2)");
  const RunResult warm_add = runWith(store, added);
  const auto& taint = warm_add.resolved[static_cast<int>(SummaryPhase::kTaint)];
  EXPECT_TRUE(taint.count("mid"));
  EXPECT_TRUE(taint.count("top"));
  EXPECT_TRUE(taint.count("main"));
  // keeper's own key is unchanged, but it gained a caller: the taint
  // memo digest covers caller-derived inputs (formal-arg facts), so a
  // live re-solve of keeper is correct, not an over-invalidation. leaf
  // has the same body, callees, and callers — it must replay.
  EXPECT_FALSE(resolvedAnywhere(warm_add).count("leaf"));
  EXPECT_TRUE(
      warm_add.memoized[static_cast<int>(SummaryPhase::kTaint)].count("leaf"));

  // Removing the edge restores the original keys: everything replays
  // from the entries the very first run stored.
  const RunResult warm_remove = runWith(store, kConeBase);
  EXPECT_TRUE(resolvedAnywhere(warm_remove).empty());
}

TEST(Summaries, CommentOnlyEditInvalidatesNothing) {
  SummaryStore store("", kAnalyzerVersion);
  const RunResult cold = runWith(store, kConeBase);

  // Comments and blank lines change the bytes of the TU (a TU-level
  // cache would miss) but not the canonical SSA, so every function key
  // is stable and the whole module replays.
  std::string touched = "/* release notes: nothing changed */\n\n";
  touched += kConeBase;
  touched += "\n/* trailing commentary */\n";
  const RunResult warm = runWith(store, touched);
  EXPECT_TRUE(resolvedAnywhere(warm).empty());
  EXPECT_EQ(warm.stats.invalidated, 0u);
  EXPECT_EQ(warm.render, cold.render);
}

TEST(Summaries, VerifyModeIsGreenOnColdWarmAndEditedRuns) {
  SummaryStore store("", kAnalyzerVersion);
  const RunResult cold = runWith(store, kShmProgram, /*verify=*/true);
  EXPECT_FALSE(cold.verify_failed);
  const RunResult warm = runWith(store, kShmProgram, /*verify=*/true);
  EXPECT_FALSE(warm.verify_failed);
  EXPECT_EQ(warm.render, cold.render);

  std::string edited = kShmProgram;
  const auto pos = edited.find("cell->v");
  ASSERT_NE(pos, std::string::npos);
  edited.replace(pos, 7, "cell->v + 1.0f");
  const RunResult warm_edit = runWith(store, edited, /*verify=*/true);
  EXPECT_FALSE(warm_edit.verify_failed);
}

TEST(Summaries, BudgetLimitsDisableTheStoreWithAReason) {
  // A budget-limited run may truncate fixpoints; storing or splicing
  // its post-states could replay degraded results into healthy runs.
  SummaryStore store("", kAnalyzerVersion);
  SafeFlowOptions opt;
  opt.budget.phase_steps = 1000000;
  const RunResult run = runWith(store, kConeBase, /*verify=*/false, opt);
  EXPECT_EQ(run.disabled_reason, "budget");
  EXPECT_TRUE(resolvedAnywhere(run).empty());  // store never bound
  EXPECT_EQ(store.residentEntries(), 0u);
}

// --- The Table 1 systems -------------------------------------------

/// One function-body edit per Table 1 system that keeps its findings.
struct Table1Edit {
  const char* system;
  const char* file;  // under core/
  const char* from;
  const char* to;
  const char* function;  // the function the edit lands in
};

const Table1Edit kTable1Edits[] = {
    {"ip", "decision.c", "return rejectCount;", "return rejectCount + 0;",
     "decisionRejectCount"},
    {"generic_simplex", "monitors.c", "return acceptCount;",
     "return acceptCount + 0;", "decisionAcceptCount"},
    {"double_ip", "decision.c", "return rejectCount;",
     "return rejectCount + 0;", "decisionRejectCount"},
};

/// `fn` and every function that calls it, directly or transitively.
std::set<std::string> callerCone(const ir::Module& module,
                                 const std::string& fn) {
  const ir::CallGraph graph(module);
  std::set<std::string> cone;
  std::vector<const ir::Function*> work;
  for (const auto& f : module.functions()) {
    if (f->name() == fn) work.push_back(f.get());
  }
  while (!work.empty()) {
    const ir::Function* f = work.back();
    work.pop_back();
    if (!cone.insert(f->name()).second) continue;
    for (const ir::Function* caller : graph.callers(f)) {
      work.push_back(caller);
    }
  }
  return cone;
}

TEST(Summaries, Table1ColdWarmAndEditedRunsMatchAStorelessRun) {
  for (const Table1Edit& edit : kTable1Edits) {
    SCOPED_TRACE(edit.system);
    // A copy of the system, so the edit never touches the corpus.
    const std::string dir = freshDir(std::string("sum_") + edit.system);
    std::filesystem::copy(kCorpus + "/" + edit.system, dir,
                          std::filesystem::copy_options::recursive);
    std::vector<std::string> files;
    for (const auto& e : std::filesystem::directory_iterator(dir + "/core")) {
      if (e.path().extension() == ".c") files.push_back(e.path().string());
    }
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty());
    SafeFlowOptions options;
    options.include_dirs = {dir + "/common"};
    options.taint.implicit_critical_calls.emplace_back("kill", 0u);

    // Without a store: the reference report, and the call graph.
    const auto storeless = [&](std::set<std::string>* cone) {
      SafeFlowDriver driver(options);
      for (const std::string& f : files) EXPECT_TRUE(driver.addFile(f)) << f;
      driver.analyze();
      if (cone != nullptr) *cone = callerCone(*driver.module(), edit.function);
      return renderOf(driver);
    };
    // With the resident store and the cold re-solve oracle.
    SummaryStore store("", kAnalyzerVersion);
    const auto memoized = [&] {
      SafeFlowOptions opt = options;
      opt.summaries.enabled = true;
      opt.summaries.verify = true;
      SafeFlowDriver driver(opt);
      driver.setSummaryStore(&store);
      for (const std::string& f : files) EXPECT_TRUE(driver.addFile(f)) << f;
      driver.analyze();
      EXPECT_FALSE(driver.degraded());
      return collect(driver, store);
    };

    const std::string reference = storeless(nullptr);
    const RunResult cold = memoized();
    EXPECT_FALSE(cold.verify_failed);
    EXPECT_EQ(cold.render, reference);
    EXPECT_FALSE(resolvedAnywhere(cold).empty());

    const RunResult warm = memoized();
    EXPECT_FALSE(warm.verify_failed);
    EXPECT_EQ(warm.render, reference);
    EXPECT_TRUE(resolvedAnywhere(warm).empty())
        << "warm run re-solved: " << *resolvedAnywhere(warm).begin();

    const std::string path = dir + "/core/" + edit.file;
    std::string text;
    {
      std::ifstream in(path, std::ios::binary);
      text.assign(std::istreambuf_iterator<char>(in), {});
    }
    const auto pos = text.find(edit.from);
    ASSERT_NE(pos, std::string::npos) << path;
    text.replace(pos, std::string(edit.from).size(), edit.to);
    writeFile(path, text);

    std::set<std::string> cone;
    const std::string edited_reference = storeless(&cone);
    ASSERT_TRUE(cone.count(edit.function));
    const RunResult edited = memoized();
    EXPECT_FALSE(edited.verify_failed);
    EXPECT_EQ(edited.render, edited_reference);
    // Exactly the cone: every key in it changed, none outside it did.
    EXPECT_EQ(resolvedAnywhere(edited), cone);
    EXPECT_FALSE(
        edited.memoized[static_cast<int>(SummaryPhase::kTaint)].empty());
    std::filesystem::remove_all(dir);
  }
}
}  // namespace
