// Cold vs warm wall time for the incremental analysis cache: runs the
// supervised ip corpus once against an empty --cache-dir (cold: one
// worker analyzes the program and its entry is stored) and once against
// the populated cache (warm: one hit, no worker at all), and
// emits BENCH_cache.json with both times and the speedup. Exits
// non-zero if the warm run missed the cache or changed the report —
// a benchmark that silently measured the wrong thing is worse than
// none. CI runs this and archives the JSON.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "safeflow/cache_manager.h"
#include "safeflow/supervisor.h"
#include "support/metrics.h"

namespace {

using namespace safeflow;

const std::string kCorpus = SAFEFLOW_CORPUS_DIR;

std::vector<std::string> ipCoreFiles() {
  return {
      kCorpus + "/ip/core/comm.c",      kCorpus + "/ip/core/decision.c",
      kCorpus + "/ip/core/filter.c",    kCorpus + "/ip/core/main.c",
      kCorpus + "/ip/core/safety.c",    kCorpus + "/ip/core/selftest.c",
      kCorpus + "/ip/core/telemetry.c",
  };
}

struct RunResult {
  double seconds = 0.0;
  std::string render;
  std::uint64_t hits = 0;
  std::uint64_t spawned = 0;
};

RunResult timedRun(const std::vector<std::string>& files,
                   const CacheOptions& cache_options) {
  support::MetricsRegistry registry;
  CacheManager cache(cache_options, &registry);
  SupervisorOptions opts;
  opts.worker_exe = SAFEFLOW_EXE;
  opts.cache = &cache;
  Supervisor sup(opts, &registry);

  const auto start = std::chrono::steady_clock::now();
  const SupervisedRun run = sup.run(files);
  const auto end = std::chrono::steady_clock::now();

  RunResult result;
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.render = run.output.stdout_text;
  result.hits = registry.counterValue("cache.hits");
  result.spawned = registry.counterValue("supervisor.workers_spawned");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_cache.json";
  const auto files = ipCoreFiles();

  const std::string cache_dir =
      "/tmp/safeflow-cache-bench." + std::to_string(::getpid());
  const std::string scrub = "rm -rf '" + cache_dir + "'";
  (void)std::system(scrub.c_str());

  CacheOptions cache_options;
  cache_options.enabled = true;
  cache_options.dir = cache_dir;

  const RunResult cold = timedRun(files, cache_options);
  // Best-of-3 warm: the cold time includes one-off page-cache warming of
  // the worker binary; the warm time should not inherit that noise.
  RunResult warm = timedRun(files, cache_options);
  for (int i = 0; i < 2; ++i) {
    const RunResult again = timedRun(files, cache_options);
    if (again.seconds < warm.seconds) warm = again;
  }
  (void)std::system(scrub.c_str());

  bool ok = true;
  if (cold.hits != 0 || cold.spawned != 1) {
    std::cerr << "cache_micro: cold run was not cold (hits=" << cold.hits
              << ", spawned=" << cold.spawned << ")\n";
    ok = false;
  }
  if (warm.hits != 1 || warm.spawned != 0) {
    std::cerr << "cache_micro: warm run was not fully warm (hits="
              << warm.hits << ", spawned=" << warm.spawned << ")\n";
    ok = false;
  }
  if (warm.render != cold.render) {
    std::cerr << "cache_micro: warm report differs from cold report\n";
    ok = false;
  }

  const double speedup =
      warm.seconds > 0.0 ? cold.seconds / warm.seconds : 0.0;
  std::ofstream out(out_path, std::ios::trunc);
  out << "{\n"
      << "  \"bench\": \"cache_micro\",\n"
      << "  \"files\": " << files.size() << ",\n"
      << "  \"cold_seconds\": " << cold.seconds << ",\n"
      << "  \"warm_seconds\": " << warm.seconds << ",\n"
      << "  \"speedup\": " << speedup << ",\n"
      << "  \"warm_hits\": " << warm.hits << ",\n"
      << "  \"valid\": " << (ok ? "true" : "false") << "\n"
      << "}\n";
  out.close();

  std::printf("cache_micro: %zu files, cold %.3fs, warm %.3fs, %.1fx\n",
              files.size(), cold.seconds, warm.seconds, speedup);
  return ok ? 0 : 1;
}
