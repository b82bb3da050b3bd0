// Tests for the out-of-process analysis supervisor: the relayed report
// equals the in-process one, worker exit/signal classification,
// watchdog kills, retry policy (then-succeed and exhausted), finding
// dedup, the shared exit-code ladder, and the JSON reader the envelope
// rests on.
//
// These spawn the real `safeflow` binary (path injected by CMake as
// SAFEFLOW_EXE) as the worker, with faults armed via the supervisor's
// extra_env so the global test environment is never mutated.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/report.h"
#include "safeflow/run_output.h"
#include "safeflow/supervisor.h"
#include "support/json.h"
#include "support/source_manager.h"

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

SupervisorOptions fastOptions() {
  SupervisorOptions opts;
  opts.worker_exe = SAFEFLOW_EXE;
  opts.worker_timeout_seconds = 30.0;
  opts.backoff_base_seconds = 0.001;  // keep retry tests fast
  return opts;
}

TEST(ExitCodeLadder, FrontendErrorsBeatDegraded) {
  // The documented ladder: 1 > 2 > 3 > 0, shared by both paths.
  EXPECT_EQ(exitCodeFor(2, true, true), 1);
  EXPECT_EQ(exitCodeFor(1, false, false), 1);
  EXPECT_EQ(exitCodeFor(0, true, true), 2);   // frontend beats degraded
  EXPECT_EQ(exitCodeFor(0, true, false), 2);
  EXPECT_EQ(exitCodeFor(0, false, true), 3);
  EXPECT_EQ(exitCodeFor(0, false, false), 0);
}

TEST(Json, ParsesTheDocumentsTheToolEmits) {
  support::json::Value v;
  std::string err;
  ASSERT_TRUE(support::json::parse(
      R"({"a": 1, "b": [true, null, "x\ny"], "c": {"d": -2.5e1}})", &v,
      &err))
      << err;
  EXPECT_EQ(v.memberUint("a"), 1u);
  const auto* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array.size(), 3u);
  EXPECT_TRUE(b->array[0].boolOr(false));
  EXPECT_EQ(b->array[2].stringOr(""), "x\ny");
  ASSERT_NE(v.find("c"), nullptr);
  EXPECT_EQ(v.find("c")->memberNumber("d"), -25.0);
}

TEST(Json, RejectsMalformedAndTornInput) {
  support::json::Value v;
  EXPECT_FALSE(support::json::parse("", &v));
  EXPECT_FALSE(support::json::parse("{\"a\": ", &v));
  EXPECT_FALSE(support::json::parse("{\"a\": 1} trailing", &v));
  EXPECT_FALSE(support::json::parse("{\"a\": 1e999}", &v));
  // Deep nesting must fail the depth cap, not the stack.
  std::string deep(500, '[');
  deep += std::string(500, ']');
  EXPECT_FALSE(support::json::parse(deep, &v));
}

TEST(ReportDedup, DropsRepeatedFindingsKeepsFirst) {
  support::SourceManager sm;
  analysis::SafeFlowReport report;
  analysis::UnsafeAccessWarning w;
  w.function = "f";
  w.region_name = "r";
  report.warnings = {w, w, w};
  analysis::RestrictionViolation v;
  v.rule = "A1";
  v.message = "same message";
  report.restriction_violations = {v, v};
  analysis::CriticalDependencyError e;
  e.function = "g";
  e.critical_value = "cmd";
  report.errors = {e, e};
  report.deduplicate(sm);
  EXPECT_EQ(report.warnings.size(), 1u);
  EXPECT_EQ(report.restriction_violations.size(), 1u);
  EXPECT_EQ(report.errors.size(), 1u);

  // Different content at the same location survives.
  analysis::RestrictionViolation v2 = v;
  v2.message = "different message";
  report.restriction_violations = {v, v2};
  report.deduplicate(sm);
  EXPECT_EQ(report.restriction_violations.size(), 2u);
}

TEST(Supervisor, CleanRunRelaysTheInProcessReport) {
  const auto files = ipCoreFiles();
  for (const bool json : {false, true}) {
    SupervisorOptions opts = fastOptions();
    opts.worker_args = {"-I", kCorpus + "/ip/common"};
    opts.render.json = json;
    support::MetricsRegistry registry;
    const SupervisedRun run = Supervisor(opts, &registry).run(files);
    ASSERT_FALSE(run.failure.has_value()) << run.failure->reason;

    SafeFlowOptions options;
    options.include_dirs = {kCorpus + "/ip/common"};
    SafeFlowDriver driver(options);
    RenderOptions render;
    render.json = json;
    const RunOutput local = analyzeAndRender(driver, files, render);
    // One worker analyzed the whole program: the relayed bytes are the
    // in-process bytes (the JSON form embeds timings, so compare the
    // report up to its stats member).
    const auto report = [json](const std::string& text) {
      return json ? text.substr(0, text.find("\"stats\"")) : text;
    };
    EXPECT_EQ(report(run.output.stdout_text), report(local.stdout_text));
    EXPECT_EQ(run.output.stderr_text, local.stderr_text);
    EXPECT_EQ(run.output.exit_code, local.exit_code);
    EXPECT_EQ(run.output.stats.files, files.size());
    ASSERT_EQ(run.output.stats.shards.size(), 1u);
    EXPECT_EQ(run.output.stats.shards[0].attempts, 1);
    EXPECT_EQ(registry.counterValue("supervisor.workers_spawned"), 1u);
    EXPECT_EQ(registry.counterValue("supervisor.workers_retried"), 0u);
  }
}

TEST(Supervisor, WorkerSigsegvIsClassifiedAndAttributed) {
  const auto files = ipCoreFiles();
  SupervisorOptions opts = fastOptions();
  opts.max_retries = 1;
  opts.extra_env = {{"SAFEFLOW_INJECT_FAULT", "crash@taint"}};
  support::MetricsRegistry registry;
  const SupervisedRun run = Supervisor(opts, &registry).run(files);

  ASSERT_TRUE(run.failure.has_value());
  EXPECT_EQ(run.failure->reason, "SIGSEGV");
  EXPECT_EQ(run.failure->attempts, 2);  // 1 + max_retries
  // The whole run failed, loudly: exit 2 and one [failed] line naming
  // the signal, never a silently empty report.
  EXPECT_EQ(run.output.exit_code, 2);
  EXPECT_EQ(run.output.stdout_text,
            "  [failed] analysis worker SIGSEGV after 2 attempt(s); "
            "no report\n");
  EXPECT_GE(registry.counterValue("supervisor.worker_crashes"), 2u);
  EXPECT_EQ(registry.counterValue("supervisor.runs_failed"), 1u);
}

TEST(Supervisor, OomEmulationIsClassifiedAsSigkill) {
  const std::vector<std::string> files = {kCorpus +
                                          "/running_example/core.c"};
  SupervisorOptions opts = fastOptions();
  opts.max_retries = 0;
  opts.extra_env = {{"SAFEFLOW_INJECT_FAULT", "oom@alias"}};
  support::MetricsRegistry registry;
  const SupervisedRun run = Supervisor(opts, &registry).run(files);
  ASSERT_TRUE(run.failure.has_value());
  EXPECT_EQ(run.failure->reason, "SIGKILL");
}

TEST(Supervisor, WatchdogKillsHangingWorker) {
  const std::vector<std::string> files = {kCorpus +
                                          "/running_example/core.c"};
  SupervisorOptions opts = fastOptions();
  opts.max_retries = 0;
  opts.worker_timeout_seconds = 0.5;
  opts.extra_env = {{"SAFEFLOW_INJECT_FAULT", "hang@taint"}};
  support::MetricsRegistry registry;
  const SupervisedRun run = Supervisor(opts, &registry).run(files);
  ASSERT_TRUE(run.failure.has_value());
  EXPECT_EQ(run.failure->reason, "timeout");
  EXPECT_EQ(registry.counterValue("supervisor.workers_killed"), 1u);
}

TEST(Supervisor, InjectedExit2WithoutReportIsNotRetried) {
  const std::vector<std::string> files = {kCorpus +
                                          "/running_example/core.c"};
  SupervisorOptions opts = fastOptions();
  opts.max_retries = 3;
  opts.extra_env = {{"SAFEFLOW_INJECT_FAULT", "exit2@frontend"}};
  support::MetricsRegistry registry;
  const SupervisedRun run = Supervisor(opts, &registry).run(files);
  ASSERT_TRUE(run.failure.has_value());
  EXPECT_EQ(run.failure->reason, "exit 2 (no report)");
  EXPECT_EQ(run.failure->attempts, 1);  // deterministic: no retry
  EXPECT_EQ(run.output.exit_code, 2);
}

TEST(Supervisor, RetryAfterCrashSucceeds) {
  const std::vector<std::string> files = {kCorpus +
                                          "/running_example/core.c"};
  SupervisorOptions opts = fastOptions();
  opts.max_retries = 2;
  opts.extra_env = {{"SAFEFLOW_INJECT_FAULT", "crash@taint"},
                    {"SAFEFLOW_INJECT_FAULT_ATTEMPTS", "1"}};
  support::MetricsRegistry registry;
  const SupervisedRun run = Supervisor(opts, &registry).run(files);
  EXPECT_FALSE(run.failure.has_value());
  EXPECT_EQ(run.attempts, 2);
  EXPECT_EQ(run.output.exit_code, 0);
  EXPECT_EQ(run.output.stats.files, 1u);
  EXPECT_EQ(registry.counterValue("supervisor.workers_retried"), 1u);
  EXPECT_EQ(registry.counterValue("supervisor.workers_spawned"), 2u);
  EXPECT_GE(registry.counterValue("supervisor.backoff_waits"), 1u);
}

TEST(Supervisor, RetryExhaustedRecordsFailureWithStderr) {
  const std::vector<std::string> files = {kCorpus +
                                          "/running_example/core.c"};
  for (const bool json : {false, true}) {
    SupervisorOptions opts = fastOptions();
    opts.max_retries = 2;
    opts.render.json = json;
    opts.extra_env = {{"SAFEFLOW_INJECT_FAULT", "crash@lowering"}};
    support::MetricsRegistry registry;
    const SupervisedRun run = Supervisor(opts, &registry).run(files);
    ASSERT_TRUE(run.failure.has_value());
    EXPECT_EQ(run.failure->attempts, 3);
    EXPECT_EQ(registry.counterValue("supervisor.workers_spawned"), 3u);
    // The captured-stderr channel and the report both carry the loss.
    EXPECT_NE(run.output.stderr_text.find("worker stderr"),
              std::string::npos);
    EXPECT_NE(run.output.stdout_text.find(json ? "\"worker_failures\""
                                               : "[failed]"),
              std::string::npos)
        << run.output.stdout_text;
  }
}

TEST(Supervisor, SpawnFailureIsReportedNotRetried) {
  SupervisorOptions opts = fastOptions();
  opts.worker_exe = "/definitely/not/safeflow";
  opts.max_retries = 3;
  support::MetricsRegistry registry;
  const SupervisedRun run = Supervisor(opts, &registry).run(
      {kCorpus + "/running_example/core.c"});
  ASSERT_TRUE(run.failure.has_value());
  EXPECT_EQ(run.failure->attempts, 1);
  EXPECT_EQ(run.output.exit_code, 2);
}

TEST(Supervisor, ParseFailureFileIsPartialNotDead) {
  // A file with a syntax error: the worker exits 2 *with* an envelope
  // (parser recovery), so the run reports [partial], not [failed].
  const std::string bad = ::testing::TempDir() + "/sup_bad.c";
  {
    FILE* f = fopen(bad.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("int main( { return 0; }\n", f);
    fclose(f);
  }
  SupervisorOptions opts = fastOptions();
  support::MetricsRegistry registry;
  const SupervisedRun run = Supervisor(opts, &registry).run(
      {bad, kCorpus + "/running_example/core.c"});
  EXPECT_FALSE(run.failure.has_value());
  EXPECT_EQ(run.output.exit_code, 2);
  EXPECT_NE(run.output.stdout_text.find("[partial] '" + bad + "'"),
            std::string::npos)
      << run.output.stdout_text;
  EXPECT_NE(run.output.stderr_text.find("sup_bad.c"), std::string::npos);
  // The good file still analyzed.
  EXPECT_EQ(run.output.stats.files, 2u);
  ::remove(bad.c_str());
}

/// Pids whose /proc cmdline carries both `--worker` and `marker` — i.e.
/// analysis workers spawned for our uniquely-named input, regardless of
/// which supervisor process owns them. Robust against parallel ctest
/// shards, which never share the marker.
std::vector<pid_t> workerPidsFor(const std::string& marker) {
  std::vector<pid_t> pids;
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return pids;
  while (dirent* entry = ::readdir(proc)) {
    char* end = nullptr;
    const long pid = std::strtol(entry->d_name, &end, 10);
    if (end == entry->d_name || *end != '\0') continue;
    std::ifstream in("/proc/" + std::string(entry->d_name) + "/cmdline",
                     std::ios::binary);
    std::string cmdline((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    std::replace(cmdline.begin(), cmdline.end(), '\0', ' ');
    if (cmdline.find("--worker") != std::string::npos &&
        cmdline.find(marker) != std::string::npos) {
      pids.push_back(static_cast<pid_t>(pid));
    }
  }
  ::closedir(proc);
  return pids;
}

TEST(Supervisor, ForwardedSigtermReapsWorkersAndExits143) {
  // End-to-end through the real binary: a worker hangs forever (every
  // attempt faults — no ATTEMPTS cap), the supervisor process takes a
  // SIGTERM, and the forwarding must (a) kill the hung worker rather
  // than orphan it and (b) exit promptly with the conventional
  // 128+SIGTERM after emitting the partial report.
  const std::string marker =
      "sigterm_forward_" + std::to_string(::getpid()) + ".c";
  const std::string input = ::testing::TempDir() + "/" + marker;
  {
    std::ofstream out(input, std::ios::trunc);
    ASSERT_TRUE(out.good());
    out << "int main(void) { return 0; }\n";
  }

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::setenv("SAFEFLOW_INJECT_FAULT", "hang@taint", 1);
    std::string store[] = {SAFEFLOW_EXE, "--isolate", "--quiet", input};
    char* argv[5] = {};
    for (int i = 0; i < 4; ++i) argv[i] = store[i].data();
    ::execv(argv[0], argv);
    ::_exit(127);
  }

  // Wait until the hung worker is actually alive before terminating.
  const auto spawn_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (workerPidsFor(marker).empty() &&
         std::chrono::steady_clock::now() < spawn_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_FALSE(workerPidsFor(marker).empty()) << "worker never spawned";

  ::kill(pid, SIGTERM);
  // Forwarding grace is 2s (SIGTERM, then SIGKILL); well under 20s even
  // on a loaded host. A miss here means the supervisor wedged.
  int status = -1;
  const auto exit_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < exit_deadline) {
    if (::waitpid(pid, &status, WNOHANG) == pid) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_NE(status, -1) << "supervisor ignored SIGTERM";
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 128 + SIGTERM);

  // The worker died with (or before) its supervisor — never orphaned.
  // A tiny settle loop absorbs the kernel's process-table lag.
  const auto orphan_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!workerPidsFor(marker).empty() &&
         std::chrono::steady_clock::now() < orphan_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(workerPidsFor(marker).empty()) << "orphaned --worker";
  ::remove(input.c_str());
}

TEST(Supervisor, NoZombiesSurviveARun) {
  SupervisorOptions opts = fastOptions();
  support::MetricsRegistry registry;
  Supervisor sup(opts, &registry);
  (void)sup.run(ipCoreFiles());
  errno = 0;
  const pid_t reaped = ::waitpid(-1, nullptr, WNOHANG);
  EXPECT_TRUE(reaped == -1 && errno == ECHILD);
}

}  // namespace
