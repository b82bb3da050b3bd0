// End-to-end tests for safeflowd: protocol round trips, byte-identity
// of daemon responses with the one-shot in-process CLI, request
// coalescing, admission-control shedding, malformed-request tolerance,
// SIGTERM drain, and crash-recovery (kill -9, restart, warm cache).
//
// Every test spawns the real `safeflowd` binary on a scratch socket in
// TempDir; the reference runs spawn the real `safeflow` binary.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "daemon_test_util.h"
#include "safeflow/driver.h"
#include "support/json.h"
#include "support/subprocess.h"

namespace {

using namespace safeflow;
using namespace daemon_test;

const std::string kCorpus = SAFEFLOW_CORPUS_DIR;

std::vector<std::string> ipCoreFiles() {
  return {
      kCorpus + "/ip/core/comm.c",      kCorpus + "/ip/core/decision.c",
      kCorpus + "/ip/core/filter.c",    kCorpus + "/ip/core/main.c",
      kCorpus + "/ip/core/safety.c",    kCorpus + "/ip/core/selftest.c",
      kCorpus + "/ip/core/telemetry.c",
  };
}

std::vector<std::string> ipFlags() {
  return {"-I", kCorpus + "/ip/common"};
}

/// A unique socket path per test (sun_path caps at ~107 bytes, so keep
/// it short and under TempDir).
std::string scratchSocket(const std::string& tag) {
  return ::testing::TempDir() + "sfd_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// The one-shot reference the daemon must match byte for byte: the
/// default in-process whole-program run.
support::SubprocessResult oneShot(const std::vector<std::string>& files,
                                  const std::vector<std::string>& flags,
                                  bool json = false, bool quiet = false) {
  std::vector<std::string> argv = {SAFEFLOW_EXE};
  if (json) argv.emplace_back("--json");
  if (quiet) argv.emplace_back("--quiet");
  argv.insert(argv.end(), flags.begin(), flags.end());
  argv.insert(argv.end(), files.begin(), files.end());
  support::SubprocessOptions opts;
  opts.timeout_seconds = 120.0;
  return support::runSubprocess(argv, opts);
}

/// Drops wall-clock lines so two JSON reports compare deterministically
/// (same helper the supervisor tests use).
std::string stripTimes(const std::string& text) {
  std::string out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    if (line.find("seconds") == std::string::npos &&
        line.find("\"gauges\"") == std::string::npos) {
      out += line;
      out += '\n';
    }
    pos = eol + 1;
  }
  return out;
}

support::json::Value parsed(const std::string& response) {
  support::json::Value doc;
  std::string error;
  EXPECT_TRUE(support::json::parse(response, &doc, &error))
      << error << "\nresponse: " << response;
  return doc;
}

std::uint64_t statusCounter(const std::string& socket,
                            const std::string& name) {
  const std::string response =
      rawRequest(socket, "{\"safeflowd\": 1, \"op\": \"status\"}\n", 15.0);
  const support::json::Value doc = parsed(response);
  const support::json::Value* counters = doc.find("counters");
  if (counters == nullptr) return 0;
  return counters->memberUint(name, 0);
}

TEST(Daemon, StatusRoundTripAndCleanDrain) {
  const std::string socket = scratchSocket("status");
  const pid_t pid = spawnDaemon({"--socket", socket, "--no-cache"});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(waitForSocket(socket));

  const std::string response =
      rawRequest(socket, "{\"safeflowd\": 1, \"op\": \"status\"}\n", 15.0);
  const support::json::Value doc = parsed(response);
  EXPECT_EQ(doc.memberString("status"), "ok");
  EXPECT_EQ(doc.memberString("version"), kAnalyzerVersion);
  EXPECT_EQ(doc.memberUint("pid"), static_cast<std::uint64_t>(pid));
  EXPECT_EQ(doc.memberUint("queue_depth"), 0u);
  EXPECT_EQ(doc.memberUint("in_flight"), 0u);

  ::kill(pid, SIGTERM);
  const int status = waitForExit(pid);
  ASSERT_NE(status, -1) << "daemon did not drain";
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  // The drain removes the socket file so restarting clients fall back
  // to local analysis immediately instead of waiting on a dead path.
  EXPECT_NE(::access(socket.c_str(), F_OK), 0);
}

TEST(Daemon, AnalyzeMatchesOneShotByteForByte) {
  const std::string socket = scratchSocket("bytes");
  const pid_t pid = spawnDaemon({"--socket", socket, "--no-cache",
                                 "--jobs", "2", "--worker-exe",
                                 SAFEFLOW_EXE});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(waitForSocket(socket));

  // Text, quiet, and --kill-critical (the Table 1 flags) all hold.
  const std::vector<std::string> kill = {"--kill-critical", "-I",
                                         kCorpus + "/ip/common"};
  for (const auto& [flags, quiet] :
       {std::pair{ipFlags(), false}, std::pair{ipFlags(), true},
        std::pair{kill, false}}) {
    const support::SubprocessResult ref =
        oneShot(ipCoreFiles(), flags, /*json=*/false, quiet);
    ASSERT_EQ(ref.status, support::SubprocessResult::Status::kExited);

    const std::string response = rawRequest(
        socket, analyzeRequest(ipCoreFiles(), flags, false, quiet), 120.0);
    const support::json::Value doc = parsed(response);
    ASSERT_EQ(doc.memberString("status"), "ok") << response;
    EXPECT_EQ(doc.memberString("stdout"), ref.out_text);
    EXPECT_EQ(doc.memberString("stderr"), ref.err_text);
    EXPECT_EQ(static_cast<int>(doc.memberNumber("exit_code", -1)),
              ref.exit_code);
    EXPECT_EQ(doc.memberUint("workers_spawned"), 1u);
    EXPECT_EQ(doc.memberUint("worker_failures", 1), 0u);
  }

  // JSON mode holds too (JSON carries wall-clock fields, so compare
  // with those lines stripped).
  const support::SubprocessResult json_ref =
      oneShot(ipCoreFiles(), ipFlags(), /*json=*/true);
  const std::string json_response = rawRequest(
      socket,
      analyzeRequest(ipCoreFiles(), ipFlags(), /*json=*/true), 120.0);
  const support::json::Value json_doc = parsed(json_response);
  ASSERT_EQ(json_doc.memberString("status"), "ok");
  EXPECT_EQ(stripTimes(json_doc.memberString("stdout")),
            stripTimes(json_ref.out_text));

  killDaemon(pid);
}

TEST(Daemon, WarmCacheKeepsResponsesIdentical) {
  const std::string socket = scratchSocket("warm");
  const std::string cache_dir = ::testing::TempDir() + "sfd_warm_cache_" +
                                std::to_string(::getpid());
  const pid_t pid =
      spawnDaemon({"--socket", socket, "--cache-dir", cache_dir,
                   "--jobs", "2", "--worker-exe", SAFEFLOW_EXE});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(waitForSocket(socket));

  const std::string request = analyzeRequest(ipCoreFiles(), ipFlags());
  const std::string cold = rawRequest(socket, request, 120.0);
  const support::json::Value cold_doc = parsed(cold);
  ASSERT_EQ(cold_doc.memberString("status"), "ok");
  EXPECT_EQ(cold_doc.memberUint("cache_hits"), 0u);
  EXPECT_EQ(cold_doc.memberUint("workers_spawned"), 1u);
  // Workers analyze without a summary store: nothing beside the result
  // cache is written under the cache dir.
  EXPECT_FALSE(std::filesystem::exists(cache_dir + "/summaries"));

  const std::string warm = rawRequest(socket, request, 120.0);
  const support::json::Value warm_doc = parsed(warm);
  // One entry covers the whole file set.
  EXPECT_EQ(warm_doc.memberUint("cache_hits"), 1u);
  EXPECT_EQ(warm_doc.memberUint("workers_spawned"), 0u);
  // The analysis payload is byte-identical: the cache replays the
  // worker's envelope. (The counters above differ by design — that is
  // how a client tells a warm hit from a cold run.)
  EXPECT_EQ(warm_doc.memberString("stdout"), cold_doc.memberString("stdout"));
  EXPECT_EQ(warm_doc.memberString("stderr"), cold_doc.memberString("stderr"));
  EXPECT_EQ(warm_doc.memberNumber("exit_code", -1.0),
            cold_doc.memberNumber("exit_code", -2.0));

  killDaemon(pid);
}

TEST(Daemon, IdenticalConcurrentRequestsCoalesce) {
  const std::string socket = scratchSocket("coalesce");
  // The injected first-attempt hang (killed at the 1s watchdog, retried
  // clean) guarantees the leader is still running when the followers
  // arrive. Fault injection arms in the workers only; the daemon's
  // CacheManager sees the env and disables itself.
  const pid_t pid = spawnDaemon(
      {"--socket", socket, "--no-cache", "--jobs", "1",
       "--worker-timeout", "1s", "--retries", "2", "--worker-exe",
       SAFEFLOW_EXE},
      {{"SAFEFLOW_INJECT_FAULT", "hang@taint"},
       {"SAFEFLOW_INJECT_FAULT_ATTEMPTS", "1"}});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(waitForSocket(socket));

  const std::vector<std::string> files = {kCorpus +
                                          "/running_example/core.c"};
  const std::string request = analyzeRequest(files, {});
  std::vector<std::string> responses(4);
  std::vector<std::thread> clients;
  clients.reserve(responses.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    clients.emplace_back([&, i] {
      // Stagger slightly so one leader is admitted first.
      if (i > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
      }
      responses[i] = rawRequest(socket, request, 120.0);
    });
  }
  for (std::thread& t : clients) t.join();

  for (const std::string& response : responses) {
    const support::json::Value doc = parsed(response);
    EXPECT_EQ(doc.memberString("status"), "ok") << response;
    // Waiters receive the leader's bytes verbatim.
    EXPECT_EQ(response, responses[0]);
  }
  EXPECT_GE(statusCounter(socket, "daemon.coalesced"), 1u);

  killDaemon(pid);
}

TEST(Daemon, AdmissionControlShedsWithRetryHint) {
  const std::string socket = scratchSocket("shed");
  // One slot, zero queue: anything beyond the in-flight leader sheds.
  const pid_t pid = spawnDaemon(
      {"--socket", socket, "--no-cache", "--jobs", "1",
       "--max-queue", "0", "--worker-timeout", "2s", "--retries", "1",
       "--worker-exe", SAFEFLOW_EXE},
      {{"SAFEFLOW_INJECT_FAULT", "hang@taint"},
       {"SAFEFLOW_INJECT_FAULT_ATTEMPTS", "1"}});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(waitForSocket(socket));

  const std::vector<std::string> slow_files = {kCorpus +
                                               "/running_example/core.c"};
  std::thread leader([&] {
    (void)rawRequest(socket, analyzeRequest(slow_files, {}), 120.0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // A *different* request (distinct coalescing key) cannot queue.
  const std::string shed_response = rawRequest(
      socket, analyzeRequest(ipCoreFiles(), ipFlags()), 30.0);
  const support::json::Value doc = parsed(shed_response);
  EXPECT_EQ(doc.memberString("status"), "busy") << shed_response;
  EXPECT_GT(doc.memberUint("retry_after_ms"), 0u);
  leader.join();
  EXPECT_GE(statusCounter(socket, "daemon.shed"), 1u);

  // Once the leader finished, the same request is admitted.
  const std::string retry = rawRequest(
      socket, analyzeRequest(slow_files, {}), 120.0);
  EXPECT_EQ(parsed(retry).memberString("status"), "ok");

  killDaemon(pid);
}

TEST(Daemon, QueuedDeadlineExpiresAsError) {
  const std::string socket = scratchSocket("deadline");
  const pid_t pid = spawnDaemon(
      {"--socket", socket, "--no-cache", "--jobs", "1",
       "--worker-timeout", "2s", "--retries", "1", "--worker-exe",
       SAFEFLOW_EXE},
      {{"SAFEFLOW_INJECT_FAULT", "hang@taint"},
       {"SAFEFLOW_INJECT_FAULT_ATTEMPTS", "1"}});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(waitForSocket(socket));

  const std::vector<std::string> slow_files = {kCorpus +
                                               "/running_example/core.c"};
  std::thread leader([&] {
    (void)rawRequest(socket, analyzeRequest(slow_files, {}), 120.0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Queued behind a ~2s leader with a 100ms deadline: expires in queue.
  const std::string response = rawRequest(
      socket,
      analyzeRequest(ipCoreFiles(), ipFlags(), false, false,
                     /*deadline_ms=*/100),
      60.0);
  const support::json::Value doc = parsed(response);
  EXPECT_EQ(doc.memberString("status"), "error") << response;
  EXPECT_NE(doc.memberString("message").find("deadline"),
            std::string::npos);
  leader.join();
  EXPECT_GE(statusCounter(socket, "daemon.deadline_expired"), 1u);

  killDaemon(pid);
}

TEST(Daemon, MalformedRequestsNeverKillTheDaemon) {
  const std::string socket = scratchSocket("fuzz");
  const pid_t pid = spawnDaemon({"--socket", socket, "--no-cache"});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(waitForSocket(socket));

  const char* malformed[] = {
      "not json at all\n",
      "{\"truncated\": \n",
      "{}\n",
      "{\"safeflowd\": 2, \"op\": \"status\"}\n",
      "{\"safeflowd\": 1}\n",
      "{\"safeflowd\": 1, \"op\": \"transmogrify\"}\n",
      "{\"safeflowd\": 1, \"op\": \"analyze\"}\n",
      "{\"safeflowd\": 1, \"op\": \"analyze\", \"files\": []}\n",
      "{\"safeflowd\": 1, \"op\": \"analyze\", \"files\": [42]}\n",
      "{\"safeflowd\": 1, \"op\": \"analyze\", \"files\": [\"\"]}\n",
      "{\"safeflowd\": 1, \"op\": \"analyze\", \"files\": [\"x.c\"], "
      "\"flags\": [\"--worker\"]}\n",
      "{\"safeflowd\": 1, \"op\": \"analyze\", \"files\": [\"x.c\"], "
      "\"flags\": \"-I\"}\n",
  };
  for (const char* request : malformed) {
    const std::string response = rawRequest(socket, request, 15.0);
    const support::json::Value doc = parsed(response);
    EXPECT_EQ(doc.memberString("status"), "error") << request;
  }

  // Mid-request disconnects (no newline, then close) cost nothing.
  for (int i = 0; i < 5; ++i) {
    const int fd = support::connectUnixSocket(socket);
    ASSERT_GE(fd, 0);
    support::writeAll(fd, "{\"safeflowd\": 1, \"op\": \"ana");
    ::close(fd);
  }

  // The daemon survived everything above.
  const std::string status =
      rawRequest(socket, "{\"safeflowd\": 1, \"op\": \"status\"}\n", 15.0);
  EXPECT_EQ(parsed(status).memberString("status"), "ok");
  EXPECT_GE(statusCounter(socket, "daemon.protocol_errors"), 10u);

  killDaemon(pid);
}

TEST(Daemon, RestartAfterKillServesWarmHitsOnTheSameSocket) {
  const std::string socket = scratchSocket("restart");
  const std::string cache_dir = ::testing::TempDir() + "sfd_restart_cache_" +
                                std::to_string(::getpid());
  const std::vector<std::string> args = {
      "--socket", socket,         "--cache-dir",  cache_dir,
      "--jobs",   "2",            "--worker-exe", SAFEFLOW_EXE};
  pid_t pid = spawnDaemon(args);
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(waitForSocket(socket));

  const std::string request = analyzeRequest(ipCoreFiles(), ipFlags());
  const std::string cold = rawRequest(socket, request, 120.0);
  ASSERT_EQ(parsed(cold).memberString("status"), "ok");

  // SIGKILL: no drain, socket file left behind, cache dir intact.
  ::kill(pid, SIGKILL);
  ASSERT_NE(waitForExit(pid), -1);
  ASSERT_EQ(::access(socket.c_str(), F_OK), 0);

  // The restart sweeps the stale socket and reattaches to the cache.
  pid = spawnDaemon(args);
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(waitForSocket(socket));
  const std::string warm = rawRequest(socket, request, 120.0);
  const support::json::Value warm_doc = parsed(warm);
  ASSERT_EQ(warm_doc.memberString("status"), "ok");
  EXPECT_EQ(warm_doc.memberUint("cache_hits"), 1u);
  EXPECT_EQ(warm_doc.memberUint("workers_spawned"), 0u);
  EXPECT_EQ(warm_doc.memberString("stdout"),
            parsed(cold).memberString("stdout"));
  EXPECT_GE(statusCounter(socket, "daemon.stale_socket_swept"), 1u);

  killDaemon(pid);
}

TEST(Daemon, ShutdownOpDrainsLikeSigterm) {
  const std::string socket = scratchSocket("shutdown");
  const pid_t pid = spawnDaemon({"--socket", socket, "--no-cache"});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(waitForSocket(socket));

  const std::string response = rawRequest(
      socket, "{\"safeflowd\": 1, \"op\": \"shutdown\"}\n", 15.0);
  const support::json::Value doc = parsed(response);
  EXPECT_EQ(doc.memberString("status"), "ok");

  const int status = waitForExit(pid);
  ASSERT_NE(status, -1);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_NE(::access(socket.c_str(), F_OK), 0);
}

TEST(Daemon, SecondDaemonRefusesALiveSocket) {
  const std::string socket = scratchSocket("second");
  const pid_t pid = spawnDaemon({"--socket", socket, "--no-cache"});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(waitForSocket(socket));

  // A second daemon on the same path must exit nonzero, not hijack it.
  const pid_t second = spawnDaemon({"--socket", socket, "--no-cache"});
  ASSERT_GT(second, 0);
  const int status = waitForExit(second);
  ASSERT_NE(status, -1);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_NE(WEXITSTATUS(status), 0);

  // The original still serves.
  const std::string response =
      rawRequest(socket, "{\"safeflowd\": 1, \"op\": \"status\"}\n", 15.0);
  EXPECT_EQ(parsed(response).memberString("status"), "ok");

  killDaemon(pid);
}

TEST(DaemonPressure, NominalDaemonReportsLevelZero) {
  const std::string socket = scratchSocket("press0");
  // No resource budgets set: every axis is off, the ladder stays at 0.
  const pid_t pid = spawnDaemon({"--socket", socket, "--no-cache"});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(waitForSocket(socket));

  const std::string response =
      rawRequest(socket, "{\"safeflowd\": 1, \"op\": \"status\"}\n", 15.0);
  const support::json::Value doc = parsed(response);
  EXPECT_EQ(doc.memberString("status"), "ok");
  EXPECT_EQ(doc.memberUint("pressure_level", 99), 0u);

  killDaemon(pid);
}

TEST(DaemonPressure, ExhaustedFdBudgetWalksLadderToDrain) {
  const std::string socket = scratchSocket("pressfd");
  const std::string metrics_path = ::testing::TempDir() + "sfd_press_" +
                                   std::to_string(::getpid()) + ".prom";
  ::unlink(metrics_path.c_str());
  // An fd budget of 1 is saturated by the listener alone: the watchdog
  // samples critical immediately, escalates to drain after 8 sustained
  // samples, and the daemon must exit 0 on its own — degradation, not
  // an OOM-killer lottery.
  const pid_t pid = spawnDaemon({"--socket", socket, "--no-cache",
                                 "--max-open-fds", "1",
                                 "--pressure-interval", "50ms",
                                 "--metrics-out", metrics_path});
  ASSERT_GT(pid, 0);

  const int status = waitForExit(pid, 30.0);
  ASSERT_NE(status, -1) << "pressure drain never happened";
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_NE(::access(socket.c_str(), F_OK), 0);  // socket swept at drain

  // The drain-time metrics flush records the ladder walk: the level
  // gauge parked at 4 (draining) and at least one transition counted.
  std::ifstream in(metrics_path);
  std::string prom((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(prom.find("safeflow_daemon_pressure_level 4"),
            std::string::npos)
      << prom;
  EXPECT_EQ(prom.find("safeflow_daemon_pressure_transitions_total 0"),
            std::string::npos)
      << prom;
  ::unlink(metrics_path.c_str());
}

}  // namespace
