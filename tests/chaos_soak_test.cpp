// I/O chaos soak (DESIGN.md §15): randomized rounds composing
// SAFEFLOW_INJECT_IO syscall faults with SAFEFLOW_INJECT_FAULT process
// faults, asserting the two invariants the robustness tier promises:
//   1. no wrong report — every surviving run's stdout is byte-identical
//      to the fault-free reference (or reports the loss explicitly);
//   2. no corrupt cache entry is ever served — a faulted store degrades
//      to a miss, and the next clean run through the same cache dir
//      still matches the reference.
//
// Iteration count defaults low so the suite stays fast locally; the CI
// chaos job sets SAFEFLOW_CHAOS_ITERS=100 (2 tests x 100 = 200 rounds).
// The random stream is a seeded LCG, so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

#include "support/subprocess.h"

namespace {

using namespace safeflow;

const std::string kCorpus = SAFEFLOW_CORPUS_DIR;

struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 17;
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }
};

std::size_t chaosIterations() {
  if (const char* env = std::getenv("SAFEFLOW_CHAOS_ITERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 6;
}

std::vector<std::string> soakFiles() {
  return {
      kCorpus + "/ip/core/comm.c",
      kCorpus + "/ip/core/decision.c",
      kCorpus + "/ip/core/filter.c",
      kCorpus + "/ip/core/safety.c",
  };
}

std::string freshDir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/" + leaf + "." +
                          std::to_string(::getpid());
  std::string cmd = "rm -rf '" + dir + "' && mkdir -p '" + dir + "'";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

support::SubprocessResult runCli(
    const std::vector<std::string>& args,
    const std::vector<std::pair<std::string, std::string>>& env = {},
    double timeout_seconds = 120.0) {
  std::vector<std::string> argv = {SAFEFLOW_EXE};
  argv.insert(argv.end(), args.begin(), args.end());
  support::SubprocessOptions opts;
  opts.timeout_seconds = timeout_seconds;
  opts.extra_env = env;
  return support::runSubprocess(argv, opts);
}

std::vector<std::string> supervisedArgv(
    const std::vector<std::string>& files,
    const std::vector<std::string>& extra) {
  std::vector<std::string> argv = {"--isolate", "-I",
                                   kCorpus + "/ip/common"};
  argv.insert(argv.end(), extra.begin(), extra.end());
  argv.insert(argv.end(), files.begin(), files.end());
  return argv;
}

// Invariants 1 + 2: syscall faults against the cache tier never change
// the report and never leave an entry a later run would wrongly serve.
TEST(ChaosSoak, CacheFaultsNeverCorruptTheReportOrTheCache) {
  const std::vector<std::string> files = soakFiles();
  const std::string cache_dir = freshDir("chaos_cache");

  // Fault-free reference bytes (cold, cache off).
  const auto reference =
      runCli(supervisedArgv(files, {"--no-cache"}));
  ASSERT_EQ(reference.status, support::SubprocessResult::Status::kExited)
      << reference.spawn_error;

  const char* kinds[] = {"enospc", "eio", "short_write", "torn_rename",
                         "fsync_fail"};
  Lcg rng(0xc4a05001);
  const std::size_t iters = chaosIterations();
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const char* kind = kinds[rng.below(5)];
    // The run stores one entry; an nth past it leaves the store clean.
    const std::size_t nth = 1 + rng.below(2);
    const std::string spec =
        std::string(kind) + "@cache.store:" + std::to_string(nth);
    SCOPED_TRACE("iter " + std::to_string(iter) + ": " + spec);

    // Faulted run: some store op fails (or tears its entry) mid-run.
    const auto faulted =
        runCli(supervisedArgv(files, {"--cache-dir", cache_dir}),
               {{"SAFEFLOW_INJECT_IO", spec}});
    ASSERT_EQ(faulted.status, support::SubprocessResult::Status::kExited);
    // Invariant 1: the report never changes — cache trouble degrades
    // to cold analysis, not to different findings.
    EXPECT_EQ(faulted.out_text, reference.out_text);
    EXPECT_EQ(faulted.exit_code, reference.exit_code);

    // Invariant 2: a clean run through the same (possibly torn) cache
    // dir still matches: torn entries are detected and purged, never
    // served.
    const auto clean =
        runCli(supervisedArgv(files, {"--cache-dir", cache_dir}));
    ASSERT_EQ(clean.status, support::SubprocessResult::Status::kExited);
    EXPECT_EQ(clean.out_text, reference.out_text);
    EXPECT_EQ(clean.exit_code, reference.exit_code);
  }
}

// Invariant 1 under composition: a syscall fault on an export plus a
// process fault in the worker. The run must report the dead worker,
// fail the export loudly (no truncated artifact), and leave the next
// clean run byte-identical to the reference.
TEST(ChaosSoak, ComposedIoAndProcessFaultsDegradeLoudly) {
  const std::vector<std::string> files = soakFiles();
  const std::string dir = freshDir("chaos_composed");

  const auto reference = runCli(supervisedArgv(files, {"--no-cache"}));
  ASSERT_EQ(reference.status, support::SubprocessResult::Status::kExited);

  const char* phases[] = {"frontend", "ssa", "taint", "report"};
  Lcg rng(0xc4a05002);
  const std::size_t iters = chaosIterations();
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const char* phase = phases[rng.below(4)];
    const std::string metrics_path =
        dir + "/m" + std::to_string(iter) + ".prom";
    SCOPED_TRACE("iter " + std::to_string(iter) + ": crash@" + phase +
                 " + enospc@metrics.out");

    // Process fault alone: the dead worker fails the run loudly with
    // exit 2 and a [failed] line, never a silently empty report.
    const auto crashed =
        runCli(supervisedArgv(files, {"--no-cache", "--retries", "0"}),
               {{"SAFEFLOW_INJECT_FAULT", std::string("crash@") + phase}});
    ASSERT_EQ(crashed.status, support::SubprocessResult::Status::kExited);
    EXPECT_NE(crashed.out_text.find("[failed]"), std::string::npos)
        << crashed.out_text;
    EXPECT_EQ(crashed.exit_code, 2);

    // Both fault layers at once: the failed export is diagnosed with a
    // classified exit and leaves no truncated artifact, no matter what
    // the worker was doing at the time.
    const auto faulted = runCli(
        supervisedArgv(files, {"--no-cache", "--retries", "0",
                               "--metrics-out", metrics_path}),
        {{"SAFEFLOW_INJECT_IO", "enospc@metrics.out"},
         {"SAFEFLOW_INJECT_FAULT", std::string("crash@") + phase}});
    ASSERT_EQ(faulted.status, support::SubprocessResult::Status::kExited);
    EXPECT_EQ(faulted.exit_code, 2);
    EXPECT_NE(faulted.err_text.find("cannot write"), std::string::npos)
        << faulted.err_text;
    EXPECT_NE(::access(metrics_path.c_str(), F_OK), 0);

    // Chaos over: the same inputs still produce the reference bytes.
    const auto clean = runCli(supervisedArgv(files, {"--no-cache"}));
    ASSERT_EQ(clean.status, support::SubprocessResult::Status::kExited);
    EXPECT_EQ(clean.out_text, reference.out_text);
    EXPECT_EQ(clean.exit_code, reference.exit_code);
  }
}

}  // namespace
