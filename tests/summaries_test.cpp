// Tests for function-level incremental analysis (DESIGN.md §16): the
// Merkle key map over the callgraph, the per-phase memo seam through a
// shared SummaryStore, edit-cone invalidation scenarios (leaf edit,
// shared callee, signature change, call-edge add/remove, comment-only
// touch), corrupt / version-mismatch purge-and-fallback, the
// --verify-summaries self-check, budget gating, and warm runs through
// the real supervisor sharing one on-disk store.
//
// Assertions are on resolvedFunctions()/memoizedFunctions() NAME SETS,
// not on raw hit/miss counters: a cold run already produces intra-run
// digest hits (a fixpoint revisits a function whose inputs did not
// change since its last local solve), so counters alone cannot
// distinguish "replayed from the store" from "converged quickly".
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "safeflow/driver.h"
#include "safeflow/summary_store.h"
#include "safeflow/supervisor.h"

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

RunResult runWith(SummaryStore& store, const std::string& src,
                  bool verify = false, SafeFlowOptions opt = {}) {
  opt.summaries.enabled = true;
  opt.summaries.verify = verify;
  SafeFlowDriver driver(opt);
  driver.setSummaryStore(&store);
  EXPECT_TRUE(driver.addSource("prog.c", src));
  const analysis::SafeFlowReport& report = driver.analyze();
  RunResult r;
  r.render = report.render(driver.sources()) +
             driver.diagnostics().render(driver.sources());
  for (int p = 0; p < kSummaryPhaseCount; ++p) {
    r.resolved[p] = store.resolvedFunctions(static_cast<SummaryPhase>(p));
    r.memoized[p] = store.memoizedFunctions(static_cast<SummaryPhase>(p));
  }
  r.stats = store.stats();
  r.verify_failed = driver.summaryVerifyFailed();
  r.disabled_reason = driver.stats().summaries_disabled_reason;
  return r;
}

// Union of live-solved function names across all three phases.
std::set<std::string> resolvedAnywhere(const RunResult& r) {
  std::set<std::string> names;
  for (int p = 0; p < kSummaryPhaseCount; ++p) {
    names.insert(r.resolved[p].begin(), r.resolved[p].end());
  }
  return names;
}

TEST(SummaryStore, PhaseNamesAndStatsLine) {
  EXPECT_EQ(summaryPhaseName(SummaryPhase::kShm), "shm");
  EXPECT_EQ(summaryPhaseName(SummaryPhase::kRanges), "ranges");
  EXPECT_EQ(summaryPhaseName(SummaryPhase::kTaint), "taint");
  SummaryStore store("", kAnalyzerVersion);
  const std::string line = store.statsLine();
  EXPECT_NE(line.find("hits=0"), std::string::npos);
  EXPECT_NE(line.find("corrupt=0"), std::string::npos);
}

TEST(Summaries, WarmUneditedRunResolvesNothing) {
  SummaryStore store("", kAnalyzerVersion);  // memory-only is enough
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

TEST(Summaries, CorruptDiskEntriesArePurgedAndFallBackCold) {
  const std::string dir = freshDir("sum_corrupt");
  std::string cold_render;
  {
    SummaryStore store(dir, kAnalyzerVersion);
    store.recoverDir();
    cold_render = runWith(store, kConeBase).render;
    EXPECT_GT(store.diskBytes(), 0u);  // flush() persisted the entries
  }
  // Truncate every entry mid-payload: the checksummed envelope catches
  // it on load. (DiskCache entries live directly under the store dir.)
  ASSERT_EQ(std::system(("for f in '" + dir +
                         "'/*; do truncate -s 7 \"$f\"; done")
                            .c_str()),
            0);
  {
    SummaryStore store(dir, kAnalyzerVersion);
    const RunResult warm = runWith(store, kConeBase);
    EXPECT_GT(warm.stats.corrupt, 0u);
    // Cold fallback: everything re-solves, the report is unaffected.
    EXPECT_FALSE(
        warm.resolved[static_cast<int>(SummaryPhase::kTaint)].empty());
    EXPECT_EQ(warm.render, cold_render);
  }
}

TEST(Summaries, AnalyzerVersionBumpInvalidatesPersistedEntries) {
  const std::string dir = freshDir("sum_version");
  std::string old_render;
  {
    // Entries written by a previous analyzer version...
    SummaryStore store(dir, "0.7.99-previous");
    store.recoverDir();
    old_render = runWith(store, kConeBase).render;
  }
  {
    // ...are purged (version-echo mismatch), never replayed.
    SummaryStore store(dir, kAnalyzerVersion);
    store.recoverDir();
    const RunResult warm = runWith(store, kConeBase);
    EXPECT_GT(warm.stats.corrupt, 0u);
    EXPECT_FALSE(
        warm.resolved[static_cast<int>(SummaryPhase::kTaint)].empty());
    EXPECT_EQ(warm.render, old_render);
  }
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

// --- End-to-end through the real supervisor -------------------------

TEST(SupervisedSummaries, ShardsShareOneStoreAndStayByteIdentical) {
  // Two programs (file sets) whose workers share one summary store.
  const std::string src_dir = freshDir("sup_sum_src");
  ASSERT_EQ(std::system(("mkdir -p '" + src_dir + "'").c_str()), 0);
  const std::string one = src_dir + "/one.c";
  const std::string two = src_dir + "/two.c";
  writeFile(one, "int helper(int x) { return x + 1; }\n"
                 "int first_unit(void) { return helper(1); }\n");
  writeFile(two, "int second_unit(void) { return 2; }\n");

  const std::string sum_dir = freshDir("sup_sum_store");
  auto runSupervised = [&](const std::vector<std::string>& files,
                           bool summaries) {
    SupervisorOptions opts;
    opts.worker_exe = SAFEFLOW_EXE;
    opts.worker_timeout_seconds = 60.0;
    if (summaries) opts.worker_args = {"--summaries-dir", sum_dir};
    support::MetricsRegistry registry;
    const SupervisedRun run = Supervisor(opts, &registry).run(files);
    EXPECT_EQ(run.output.exit_code, 0);
    return run.output.stdout_text;
  };

  const std::string cold_both = runSupervised({one, two}, true);
  const std::string cold_two = runSupervised({two}, true);
  // The workers persisted their summaries into the shared dir.
  SummaryStore probe(sum_dir, kAnalyzerVersion);
  EXPECT_GT(probe.diskBytes(), 0u);

  // Warm: byte-identical to the cold runs.
  EXPECT_EQ(runSupervised({one, two}, true), cold_both);
  EXPECT_EQ(runSupervised({two}, true), cold_two);

  // Editing one TU leaves the report equal to a no-summaries control
  // run over the edited sources.
  writeFile(one, "int helper(int x) { return x + 7; }\n"
                 "int first_unit(void) { return helper(1); }\n");
  EXPECT_EQ(runSupervised({one, two}, true), runSupervised({one, two}, false));
}

TEST(SupervisedSummaries, VerifyModeStaysGreenOnTheCorpus) {
  const std::string sum_dir = freshDir("sup_sum_verify");
  auto runSupervised = [&]() {
    SupervisorOptions opts;
    opts.worker_exe = SAFEFLOW_EXE;
    opts.worker_timeout_seconds = 120.0;
    opts.worker_args = {"--summaries-dir", sum_dir, "--verify-summaries"};
    support::MetricsRegistry registry;
    return Supervisor(opts, &registry)
        .run({kCorpus + "/ip/core/comm.c", kCorpus + "/ip/core/decision.c",
              kCorpus + "/ip/core/safety.c"});
  };
  const SupervisedRun cold = runSupervised();
  // A verification failure exits the worker with code 2, which the run
  // relays.
  EXPECT_FALSE(cold.failure.has_value());
  EXPECT_EQ(cold.output.exit_code, 0);
  const SupervisedRun warm = runSupervised();
  EXPECT_EQ(warm.output.exit_code, 0);
  EXPECT_EQ(warm.output.stdout_text, cold.output.stdout_text);
}

}  // namespace
