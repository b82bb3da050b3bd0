// Fault-injection soak for the analysis supervisor: many iterations of
// randomized fault kind / pipeline phase / retry budget, asserting the
// supervisor itself never crashes, every dead worker fails the run
// loudly (exit 2, a [failed] line or a worker_failures entry) with the
// right attempt count, and a clean run afterwards still matches the
// fault-free report.
//
// Iteration count defaults low so the suite stays fast locally; CI sets
// SAFEFLOW_SOAK_ITERS=200 for the long soak. The random stream is a
// seeded LCG, so a given iteration count is fully reproducible.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "safeflow/supervisor.h"
#include "support/metrics.h"

namespace {

using namespace safeflow;

const std::string kCorpus = SAFEFLOW_CORPUS_DIR;

/// Deterministic 64-bit LCG (MMIX constants) — no std::random so runs
/// are identical across libstdc++ versions.
struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 17;
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }
};

std::size_t soakIterations() {
  if (const char* env = std::getenv("SAFEFLOW_SOAK_ITERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 12;
}

TEST(SupervisorSoak, RandomizedFaultsNeverTakeDownTheSupervisor) {
  const std::vector<std::string> files = {
      kCorpus + "/ip/core/comm.c",      kCorpus + "/ip/core/decision.c",
      kCorpus + "/ip/core/filter.c",    kCorpus + "/ip/core/main.c",
      kCorpus + "/ip/core/safety.c",    kCorpus + "/ip/core/selftest.c",
      kCorpus + "/ip/core/telemetry.c",
  };
  // Fault menu: `hang` rides on a short watchdog so soak time stays
  // bounded; the others die instantly.
  const char* kinds[] = {"crash", "oom", "exit2", "hang"};
  const char* phases[] = {"frontend", "lowering",     "ssa",
                          "callgraph", "shm_propagation", "ranges",
                          "taint",     "report"};

  // Fault-free baseline: what every surviving run must print.
  SupervisorOptions clean_opts;
  clean_opts.worker_exe = SAFEFLOW_EXE;
  support::MetricsRegistry clean_registry;
  const SupervisedRun clean =
      Supervisor(clean_opts, &clean_registry).run(files);
  ASSERT_FALSE(clean.failure.has_value());
  EXPECT_EQ(clean.output.stats.files, files.size());

  Lcg rng(0x5afef10e);
  const std::size_t iters = soakIterations();
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const char* kind = kinds[rng.below(4)];
    const char* phase = phases[rng.below(8)];
    const bool hang = std::string(kind) == "hang";
    const bool exit2 = std::string(kind) == "exit2";

    SupervisorOptions opts;
    opts.worker_exe = SAFEFLOW_EXE;
    opts.render.json = rng.below(2) == 1;
    opts.backoff_base_seconds = 0.001;
    // Hangs burn the full watchdog per attempt; keep both short.
    opts.max_retries = hang ? 0 : static_cast<int>(rng.below(3));
    opts.worker_timeout_seconds = hang ? 2.0 : 30.0;
    opts.extra_env = {
        {"SAFEFLOW_INJECT_FAULT", std::string(kind) + "@" + phase}};

    support::MetricsRegistry registry;
    const SupervisedRun run = Supervisor(opts, &registry).run(files);

    SCOPED_TRACE("iter " + std::to_string(iter) + ": " + kind + "@" +
                 phase + " retries=" + std::to_string(opts.max_retries));
    // The worker died and the run says so.
    ASSERT_TRUE(run.failure.has_value());
    // A deterministic exit 2 is never retried; crash/oom/hang use the
    // full retry budget.
    EXPECT_EQ(run.failure->attempts, exit2 ? 1 : 1 + opts.max_retries);
    EXPECT_EQ(run.output.exit_code, 2);
    const char* loss =
        opts.render.json ? "\"worker_failures\"" : "[failed]";
    EXPECT_NE(run.output.stdout_text.find(loss), std::string::npos)
        << run.output.stdout_text;
    EXPECT_EQ(registry.counterValue("supervisor.runs_failed"), 1u);
  }

  // The soak leaves nothing behind: a clean run still prints the
  // fault-free report.
  support::MetricsRegistry after_registry;
  const SupervisedRun after =
      Supervisor(clean_opts, &after_registry).run(files);
  EXPECT_EQ(after.output.stdout_text, clean.output.stdout_text);

  // After the whole soak: every child reaped, no zombies left behind.
  errno = 0;
  const pid_t reaped = ::waitpid(-1, nullptr, WNOHANG);
  EXPECT_TRUE(reaped == -1 && errno == ECHILD)
      << "zombie child survived the soak";
}

}  // namespace
