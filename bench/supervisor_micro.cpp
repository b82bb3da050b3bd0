// Microbenchmarks for the out-of-process supervisor: what does crash
// isolation cost? Compares in-process analysis of a file against a
// supervised run of the same file (fork/exec + JSON envelope round
// trip).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "safeflow/driver.h"
#include "safeflow/supervisor.h"
#include "support/metrics.h"

namespace {

using namespace safeflow;

const std::string kCorpus = SAFEFLOW_CORPUS_DIR;

void BM_InProcessSingleFile(benchmark::State& state) {
  const std::string file = kCorpus + "/running_example/core.c";
  for (auto _ : state) {
    SafeFlowDriver driver;
    (void)driver.addFile(file);
    driver.analyze();
    benchmark::DoNotOptimize(driver.report());
  }
}
BENCHMARK(BM_InProcessSingleFile)->Unit(benchmark::kMillisecond);

void BM_SupervisedSingleFile(benchmark::State& state) {
  // The delta vs BM_InProcessSingleFile is the isolation overhead:
  // fork/exec, pipe capture, JSON envelope render + reparse.
  const std::vector<std::string> files = {kCorpus +
                                          "/running_example/core.c"};
  SupervisorOptions opts;
  opts.worker_exe = SAFEFLOW_EXE;
  for (auto _ : state) {
    support::MetricsRegistry registry;
    Supervisor sup(opts, &registry);
    benchmark::DoNotOptimize(sup.run(files));
  }
}
BENCHMARK(BM_SupervisedSingleFile)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
