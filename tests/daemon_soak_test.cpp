// Fault-injection soak for safeflowd: one daemon instance serves many
// iterations of randomized traffic — analyze requests (some identical,
// coalescing; some with tight deadlines), status probes, protocol
// garbage, mid-request disconnects — while every worker's first attempt
// dies from a randomized injected fault (crash/oom/hang). Asserts the
// daemon never dies, never returns a wrong report (every ok response
// matches the clean reference bytes), and exercises busy-shedding.
//
// Iteration count defaults low so the suite stays fast locally; CI sets
// SAFEFLOW_DAEMON_SOAK_ITERS=200 for the long soak. The random stream
// is a seeded LCG, so a given iteration count is fully reproducible.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "daemon_test_util.h"
#include "support/json.h"
#include "support/subprocess.h"

namespace {

using namespace safeflow;
using namespace daemon_test;

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
  if (const char* env = std::getenv("SAFEFLOW_DAEMON_SOAK_ITERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 30;
}

TEST(DaemonSoak, InjectedFaultsAndHostileClientsNeverKillTheDaemon) {
  const std::vector<std::string> work_sets[] = {
      {kCorpus + "/running_example/core.c"},
      {kCorpus + "/ip/core/safety.c", kCorpus + "/ip/core/telemetry.c"},
  };
  const std::vector<std::string> flag_sets[] = {
      {},
      {"-I", kCorpus + "/ip/common"},
  };
  const char* kinds[] = {"crash", "oom", "hang"};
  const char* phases[] = {"frontend", "ssa", "taint", "report"};

  // Clean reference bytes per work set × quiet mode: what every
  // successful response must carry, faults or not (first attempts die,
  // retries succeed).
  std::string references[2][2];
  for (int w = 0; w < 2; ++w) {
    for (int q = 0; q < 2; ++q) {
      std::vector<std::string> argv = {SAFEFLOW_EXE, "--isolate"};
      if (q == 1) argv.emplace_back("--quiet");
      argv.insert(argv.end(), flag_sets[w].begin(), flag_sets[w].end());
      argv.insert(argv.end(), work_sets[w].begin(), work_sets[w].end());
      support::SubprocessOptions opts;
      opts.timeout_seconds = 120.0;
      const support::SubprocessResult ref =
          support::runSubprocess(argv, opts);
      ASSERT_TRUE(ref.exitedWith(0)) << ref.err_text;
      references[w][q] = ref.out_text;
    }
  }

  Lcg rng(0xdae30f5afeULL);
  const std::size_t iters = soakIterations();
  std::uint64_t shed_seen = 0;
  std::uint64_t ok_seen = 0;

  // One daemon takes all the traffic of a fault round; re-spawned per
  // fault configuration (env is per-process), never because it died.
  for (std::size_t round = 0; round < (iters + 9) / 10; ++round) {
    const char* kind = kinds[rng.below(3)];
    const char* phase = phases[rng.below(4)];
    const bool hang = std::string(kind) == "hang";
    const std::string socket =
        ::testing::TempDir() + "sfd_soak_" + std::to_string(::getpid()) +
        "_" + std::to_string(round) + ".sock";

    const pid_t pid = spawnDaemon(
        {"--socket", socket, "--no-cache", "--jobs", "1",
         "--max-queue", "1", "--retries", "2", "--worker-timeout",
         hang ? "1s" : "30s", "--worker-exe", SAFEFLOW_EXE},
        {{"SAFEFLOW_INJECT_FAULT", std::string(kind) + "@" + phase},
         {"SAFEFLOW_INJECT_FAULT_ATTEMPTS", "1"}});
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(waitForSocket(socket));

    for (std::size_t i = 0; i < 10 && round * 10 + i < iters; ++i) {
      SCOPED_TRACE("round " + std::to_string(round) + " iter " +
                   std::to_string(i) + ": " + kind + "@" + phase);
      const std::size_t w = rng.below(2);

      // A burst of concurrent clients with overlapping request keys
      // (files × quiet): equal keys coalesce, distinct ones fight for
      // the single slot and the size-1 queue — shedding is expected and
      // must be structured, not a hang.
      const std::size_t burst = 2 + rng.below(3);  // 2..4
      std::vector<std::string> responses(burst);
      std::vector<std::size_t> work(burst);
      std::vector<bool> quiet(burst);
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < burst; ++c) {
        work[c] = (w + c) % 2;
        quiet[c] = c >= 2;
        const std::string request = analyzeRequest(
            work_sets[work[c]], flag_sets[work[c]], false, quiet[c]);
        clients.emplace_back([&responses, &socket, request, c] {
          responses[c] = rawRequest(socket, request, 120.0);
        });
      }
      // Hostile traffic rides alongside every burst.
      switch (rng.below(3)) {
        case 0:
          (void)rawRequest(socket, "soak garbage {]\n", 15.0);
          break;
        case 1: {
          const int fd = support::connectUnixSocket(socket);
          if (fd >= 0) {
            support::writeAll(fd, "{\"safeflowd\": 1, \"op");
            ::close(fd);  // mid-request disconnect
          }
          break;
        }
        case 2:
          // Tight-deadline request: expires in queue or is shed; either
          // way it must come back structured.
          (void)rawRequest(socket,
                           analyzeRequest(work_sets[1 - w],
                                          flag_sets[1 - w], false, false,
                                          /*deadline_ms=*/1),
                           60.0);
          break;
      }
      for (std::thread& t : clients) t.join();

      for (std::size_t c = 0; c < burst; ++c) {
        const std::string& response = responses[c];
        support::json::Value doc;
        std::string error;
        ASSERT_TRUE(support::json::parse(response, &doc, &error))
            << error << "\nresponse: " << response;
        const std::string status = doc.memberString("status");
        if (status == "ok") {
          ++ok_seen;
          // Never a wrong report: the faulted first attempts were
          // retried to the exact clean bytes.
          EXPECT_EQ(doc.memberString("stdout"),
                    references[work[c]][quiet[c] ? 1 : 0]);
          EXPECT_EQ(static_cast<int>(doc.memberNumber("exit_code", -1)),
                    0);
        } else if (status == "busy") {
          ++shed_seen;
          EXPECT_GT(doc.memberUint("retry_after_ms"), 0u);
        } else {
          ADD_FAILURE() << "unexpected response: " << response;
        }
      }

      // The daemon is still alive and answering between bursts.
      const std::string probe = rawRequest(
          socket, "{\"safeflowd\": 1, \"op\": \"status\"}\n", 15.0);
      support::json::Value status_doc;
      std::string probe_error;
      ASSERT_TRUE(support::json::parse(probe, &status_doc, &probe_error))
          << "daemon died mid-soak; probe got: " << probe;
      ASSERT_EQ(status_doc.memberString("status"), "ok");
    }

    // Clean drain after each round; a wedged daemon fails here.
    ::kill(pid, SIGTERM);
    const int status = waitForExit(pid, 60.0);
    ASSERT_NE(status, -1) << "daemon failed to drain";
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  EXPECT_GT(ok_seen, 0u);
  // With a 1-deep queue and bursts of up to 4 distinct request keys the
  // admission control must have shed at least once over a full soak.
  if (iters >= 20) {
    EXPECT_GT(shed_seen, 0u);
  }
}

}  // namespace
