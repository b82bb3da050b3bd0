// Cost of re-analyzing after a one-function edit, with and without the
// function-level summary store: runs the in-process pipeline over a
// synthetic module whose taint fixpoint dominates wall time (see
// bench::accumulatorCycleProgram), then measures
//
//   cold          summaries on, empty store — every function solves
//                 live and records;
//   tu_warm       summaries off, one function edited — what a PR 4
//                 TU-cache warm run pays after an edit, since a changed
//                 TU misses the per-file cache and the whole module
//                 re-analyzes;
//   summary_warm  summaries on, resident store, one function edited —
//                 only the edited cone (the function + its callers)
//                 re-solves, the rest replays recorded post-states.
//
// Each summary_warm rep perturbs the edited function differently so the
// store never holds that rep's cone in advance (a rep that replayed its
// own edit would measure a fully-warm run, not an incremental one).
// Emits BENCH_summaries.json and exits non-zero when the run is
// invalid: a report mismatch against a summaries-off reference, a live
// re-solve outside the edited cone, a cold run that was not cold, or a
// degraded run. The speedup over tu_warm is reported, not gated: against
// the sparse taint solver it is 1.1-1.3x on a 4-core Linux box. CI runs
// this and archives the JSON.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <string>

#include "bench/synthetic.h"
#include "safeflow/driver.h"
#include "safeflow/summary_store.h"

namespace {

using namespace safeflow;

constexpr int kFunctions = 150;
constexpr int kCycle = 96;
constexpr int kEditedFn = 75;

struct RunResult {
  double seconds = 0.0;
  std::string render;
  bool degraded = false;
  SummaryStoreStats stats;
  std::set<std::string> resolved_taint;
};

RunResult runOnce(const std::string& source, SummaryStore* store) {
  SafeFlowOptions o;
  o.summaries.enabled = store != nullptr;
  SafeFlowDriver d(o);
  if (store != nullptr) d.setSummaryStore(store);
  const auto start = std::chrono::steady_clock::now();
  if (!d.addSource("bench.c", source)) {
    std::cerr << "summary_micro: front end rejected the generated source\n";
    std::exit(1);
  }
  const auto& report = d.analyze();
  const auto end = std::chrono::steady_clock::now();

  RunResult r;
  r.seconds = std::chrono::duration<double>(end - start).count();
  r.render = report.render(d.sources());
  r.degraded = d.degraded();
  if (store != nullptr) {
    r.stats = store->stats();
    r.resolved_taint = store->resolvedFunctions(SummaryPhase::kTaint);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_summaries.json";

  const std::string base =
      bench::accumulatorCycleProgram(kFunctions, kCycle);

  // The resident store outlives each SafeFlowDriver, so later runs
  // replay what earlier ones recorded.
  SummaryStore store("", kAnalyzerVersion);
  const RunResult cold = runOnce(base, &store);

  // Edit-one-function warm: best-of-3, a fresh edit per rep so the cone
  // is never pre-recorded. The last rep's render is kept for the
  // byte-identity check against the summaries-off baseline below (the
  // best rep may have analyzed a different edit).
  RunResult summary_warm;
  std::string last_render;
  bool cone_ok = true;
  std::string last_edit;
  for (int rep = 1; rep <= 3; ++rep) {
    last_edit =
        bench::accumulatorCycleProgram(kFunctions, kCycle, kEditedFn, rep);
    const RunResult r = runOnce(last_edit, &store);
    // Only the edited function's cone (itself + its sole caller, main)
    // may solve live on a warm run.
    for (const std::string& fn : r.resolved_taint) {
      if (fn != "compute" + std::to_string(kEditedFn) && fn != "main") {
        std::cerr << "summary_micro: unexpected live re-solve of " << fn
                  << " on a warm run\n";
        cone_ok = false;
      }
    }
    last_render = r.render;
    if (rep == 1 || r.seconds < summary_warm.seconds) summary_warm = r;
  }

  // Edit-one-TU baseline: summaries off, full re-analysis of the module
  // carrying the last edit. Best-of-2 (the shape converges identically
  // every time). Doubles as the byte-identity reference: the warm run
  // over the same source must render the same report (findings, not
  // timings — the render carries no clocks).
  RunResult tu_warm = runOnce(last_edit, nullptr);
  {
    const RunResult again = runOnce(last_edit, nullptr);
    if (again.seconds < tu_warm.seconds) tu_warm = again;
  }

  bool ok = cone_ok;
  if (cold.degraded || tu_warm.degraded || summary_warm.degraded) {
    std::cerr << "summary_micro: a run degraded; timings are meaningless\n";
    ok = false;
  }
  if (cold.stats.spliced != 0 && cold.stats.invalidated == 0) {
    std::cerr << "summary_micro: cold run was not cold\n";
    ok = false;
  }
  if (last_render != tu_warm.render) {
    std::cerr << "summary_micro: warm report differs from the "
                 "summaries-off baseline (dumped next to the JSON)\n";
    std::ofstream(out_path + ".warm.txt", std::ios::trunc) << last_render;
    std::ofstream(out_path + ".base.txt", std::ios::trunc)
        << tu_warm.render;
    ok = false;
  }

  const double speedup = summary_warm.seconds > 0.0
                             ? tu_warm.seconds / summary_warm.seconds
                             : 0.0;
  const double vs_cold =
      summary_warm.seconds > 0.0 ? cold.seconds / summary_warm.seconds : 0.0;
  std::ofstream out(out_path, std::ios::trunc);
  out << "{\n"
      << "  \"bench\": \"summary_micro\",\n"
      << "  \"functions\": " << kFunctions << ",\n"
      << "  \"cycle\": " << kCycle << ",\n"
      << "  \"cold_seconds\": " << cold.seconds << ",\n"
      << "  \"tu_warm_seconds\": " << tu_warm.seconds << ",\n"
      << "  \"summary_warm_seconds\": " << summary_warm.seconds << ",\n"
      << "  \"speedup_vs_tu_warm\": " << speedup << ",\n"
      << "  \"speedup_vs_cold\": " << vs_cold << ",\n"
      << "  \"warm_hits\": " << summary_warm.stats.hits << ",\n"
      << "  \"warm_misses\": " << summary_warm.stats.misses << ",\n"
      << "  \"warm_invalidated\": " << summary_warm.stats.invalidated
      << ",\n"
      << "  \"warm_spliced\": " << summary_warm.stats.spliced << ",\n"
      << "  \"valid\": " << (ok ? "true" : "false") << "\n"
      << "}\n";
  out.close();

  std::printf(
      "summary_micro: %d fns, cold %.3fs, tu_warm %.3fs, "
      "summary_warm %.3fs, %.1fx vs tu_warm\n",
      kFunctions, cold.seconds, tu_warm.seconds, summary_warm.seconds,
      speedup);
  return ok ? 0 : 1;
}
